#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "db/database.h"
#include "db/placement.h"
#include "db/transaction.h"
#include "sched/registry.h"

namespace perfbench {

using namespace rtds;

namespace {

// The bench_streaming cell stream_poisson reproduces: m = 4, C = 50 us,
// Poisson gaps of 1800 us (555.6 tasks/s, rt_sads' max sustainable rate in
// BENCH_STREAMING.json), admission bound 128, 2000 tasks per run.
constexpr std::uint32_t kStreamWorkers = 4;
constexpr std::int64_t kStreamGapUs = 1800;
constexpr std::uint32_t kStreamTasks = 2000;
// Committed BENCH_STREAMING.json row for rt_sads at gap 1800 us.
constexpr std::uint64_t kStreamAnchorHits = 1961;
constexpr std::uint64_t kStreamAnchorSamples = 1961;

// FIG5 golden means (tests/exp/fig5_golden_test.cc), to one decimal.
double golden_hit_pct(const Workload& w) {
  if (w.kind != Kind::kFig5) return -1.0;
  return std::string(w.algo) == "rt_sads" ? 15.3 : 8.4;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all{
      {"fig5_rtsads", Kind::kFig5, "rt_sads", 40, "search",
       0x7dc9abaa06a8cab0ULL},
      {"fig5_dcols", Kind::kFig5, "d_cols", 40, "search",
       0x84314f4c044244b6ULL},
      {"stream_poisson", Kind::kStream, "rt_sads", 12, "sched",
       0x8458e5bcbbdd4187ULL},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> differences(const Outcome& a, const Outcome& b) {
  std::vector<std::string> out;
  testing::oracle_metric_parity(a.run, b.run, out);
  if (a.batch_tasks != b.batch_tasks) {
    out.push_back("batch sizes: " + std::to_string(b.batch_tasks) +
                  " batched tasks, expected " + std::to_string(a.batch_tasks));
  }
  return out;
}

std::string join(const std::vector<std::string>& violations) {
  std::string line;
  for (const std::string& v : violations) {
    line += (line.empty() ? "" : "; ") + v;
  }
  return line;
}

std::uint64_t digest(const std::vector<Outcome>& runs) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Outcome& o : runs) {
    mix(o.run.metrics.deadline_hits);
    mix(o.run.metrics.culled);
    mix(o.run.metrics.phases);
    mix(o.run.metrics.vertices_generated);
  }
  return h;
}

namespace {
constexpr double kHistLoUs = 1e-3;
constexpr double kHistGrowth = 1.01;
constexpr std::size_t kHistBuckets = 2778;  // 1.01^2778 ~ 1e12
}  // namespace

LogHistogram::LogHistogram() : buckets_(kHistBuckets, 0) {}

void LogHistogram::add(double us) {
  const double pos = std::log(std::max(us, kHistLoUs) / kHistLoUs) /
                     std::log(kHistGrowth);
  buckets_[std::min(std::size_t(pos), kHistBuckets - 1)] += 1;
  count_ += 1;
}

double LogHistogram::quantile(double q) const {
  // Rank interpolated geometrically inside the bucket that holds it.
  const double rank = q * double(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    if (rank < double(below + buckets_[i])) {
      const double frac = (rank - double(below) + 0.5) / double(buckets_[i]);
      return kHistLoUs * std::pow(kHistGrowth, double(i) + frac);
    }
    below += buckets_[i];
  }
  return kHistLoUs * std::pow(kHistGrowth, double(kHistBuckets));
}

void PhaseClock::begin_run(Tracer* tracer) {
  last_ns_ = 0;
  batch_tasks = 0;
  tracer_ = tracer;
}

void PhaseClock::on_phase(const sched::PhaseRecord& record) {
  const std::uint64_t t = now_ns();
  if (last_ns_ != 0) intervals_us.add(double(t - last_ns_) * 1e-3);
  last_ns_ = t;
  batch_tasks += record.batch_size;
  if (tracer_ != nullptr) {
    tracer_->set_phase(static_cast<std::uint32_t>(record.index + 1));
  }
}

Bench::Bench(const Workload& workload)
    : w_(workload),
      algo_(sched::AlgorithmRegistry::builtin().make(workload.algo)) {
  if (const auto* tree =
          dynamic_cast<const sched::TreeSearchAlgorithm*>(algo_.get())) {
    order_ = tree->search_config().task_order;
  }
  switch (w_.kind) {
    case Kind::kFig5:
      // The FIG5 acceptance cell: m = 10, R = 30%, SF = 1, 1000
      // transactions; everything else is the ExperimentConfig default.
      fig5_.num_workers = 10;
      fig5_.replication_rate = 0.3;
      fig5_.scaling_factor = 1.0;
      fig5_.num_transactions = 1000;
      quantum_ = fig5_.make_quantum();
      pipeline_cfg_.vertex_generation_cost = fig5_.vertex_cost;
      pipeline_cfg_.phase_overhead = fig5_.phase_overhead;
      break;
    case Kind::kStream:
      quantum_ = sched::make_self_adjusting_quantum();
      stream_opts_.max_pending = 128;
      stream_opts_.latency_hi_us = 5.0e5;
      stream_opts_.latency_buckets = 1000;
      break;
  }
}

std::uint64_t Bench::default_base_seed() const {
  return exp::ExperimentConfig{}.base_seed;
}

std::uint64_t Bench::seed(std::uint64_t base, std::uint32_t i) const {
  if (w_.kind == Kind::kFig5) return derive_seed(base, i);
  return derive_seed(base, stream_id("perfbench.stream_poisson"), i);
}

std::uint64_t Bench::tasks_per_run() const {
  return w_.kind == Kind::kFig5 ? fig5_.num_transactions : kStreamTasks;
}

std::unique_ptr<tasks::ArrivalSource> Bench::stream_source(
    std::uint64_t seed) const {
  tasks::StreamConfig cfg;
  cfg.seed = seed;
  cfg.max_tasks = kStreamTasks;
  cfg.body.num_processors = kStreamWorkers;
  return std::make_unique<tasks::PoissonArrivalSource>(cfg,
                                                       usec(kStreamGapUs));
}

Prepared Bench::prepare(std::uint64_t seed, Tracer* tracer) const {
  Prepared p;
  p.seed = seed;
  if (tracer != nullptr) tracer->open(SpanKind::kSetup, seed);
  const auto span = [tracer](SpanKind kind, std::uint64_t t0) {
    if (tracer != nullptr) tracer->record(kind, t0, now_ns());
  };
  std::uint32_t workers = kStreamWorkers;
  SimDuration comm_cost = usec(50);
  if (w_.kind == Kind::kFig5) {
    // Same draws, in the same order, as exp::run_once.
    Xoshiro256ss rng(seed);
    std::uint64_t t0 = now_ns();
    const db::GlobalDatabase database(fig5_.database, rng);
    span(SpanKind::kDbBuild, t0);
    const db::Placement placement = db::Placement::rotation(
        fig5_.database.num_subdbs, fig5_.num_workers,
        fig5_.replication_rate);
    db::TransactionWorkloadConfig txn_cfg;
    txn_cfg.num_transactions = fig5_.num_transactions;
    txn_cfg.max_predicates = fig5_.max_predicates;
    txn_cfg.scaling_factor = fig5_.scaling_factor;
    txn_cfg.fill_actual_costs = fig5_.reclaim_actual_costs;
    t0 = now_ns();
    const std::vector<db::Transaction> txns =
        db::generate_transactions(database, txn_cfg, rng);
    span(SpanKind::kDbTxnGen, t0);
    t0 = now_ns();
    p.workload = db::to_tasks(txns, database, placement, txn_cfg);
    span(SpanKind::kDbToTasks, t0);
    workers = fig5_.num_workers;
    comm_cost = fig5_.comm_cost;
    // run() is run_stream over a VectorArrivalSource with admission off;
    // the traced run takes that path so the source can be decorated. The
    // copy leaves the cell itself for check().
    if (tracer != nullptr) {
      p.source = std::make_unique<tasks::VectorArrivalSource>(p.workload);
    }
  } else {
    // The open stream has no db stage: its db spans bracket nothing, so
    // they measure only the span's own cost.
    span(SpanKind::kDbBuild, now_ns());
    span(SpanKind::kDbTxnGen, now_ns());
    span(SpanKind::kDbToTasks, now_ns());
    p.source = stream_source(seed);
  }
  p.cluster = std::make_unique<machine::Cluster>(
      workers, machine::Interconnect::cut_through(workers, comm_cost),
      machine::ReclaimMode::kWorstCase);
  p.simulator = std::make_unique<sim::Simulator>();
  p.backend = std::make_unique<sched::SimBackend>(*p.cluster, *p.simulator);
  if (tracer != nullptr) tracer->close();
  return p;
}

Outcome Bench::run(Prepared& p, PhaseClock& clock, Tracer* tracer) const {
  Outcome out;
  out.run.name = tracer != nullptr ? "traced" : "untraced";
  clock.begin_run(tracer);
  std::optional<sched::StreamStats> stats;
  if (w_.kind == Kind::kStream) stats.emplace(stream_opts_);
  sched::StreamStats* stats_ptr = stats ? &*stats : nullptr;

  if (tracer == nullptr) {
    const sched::PhasePipeline pipeline(*algo_, *quantum_, pipeline_cfg_);
    if (w_.kind == Kind::kFig5) {
      out.run.metrics = pipeline.run(p.workload, *p.backend, &clock);
    } else {
      out.run.metrics = pipeline.run_stream(*p.source, *p.backend,
                                            stream_opts_, stats_ptr, &clock);
    }
  } else {
    const TracedAlgorithm algo(*algo_, order_, *tracer);
    const TracedQuantum quantum(*quantum_, *tracer);
    TracedBackend backend(*p.backend, *tracer);
    TracedSource source(*p.source, *tracer);
    const sched::PhasePipeline pipeline(algo, quantum, pipeline_cfg_);
    tracer->open(SpanKind::kRun, p.seed);
    out.run.metrics = pipeline.run_stream(
        source, backend,
        w_.kind == Kind::kFig5 ? sched::StreamOptions{} : stream_opts_,
        stats_ptr, &clock);
    tracer->close();
  }
  out.batch_tasks = clock.batch_tasks;
  if (stats) {
    out.run.has_latency = true;
    out.run.latency_count = stats->schedule_latency.count();
    out.run.latency_underflow = stats->schedule_latency.underflow();
    out.run.latency_overflow = stats->schedule_latency.overflow();
    out.run.latency_buckets = stats->schedule_latency.buckets();
  }
  return out;
}

Outcome Bench::run_seed(std::uint64_t seed, Tracer* tracer,
                        std::string* err) const {
  PhaseClock clock;
  Prepared p = prepare(seed, tracer);
  Outcome o = run(p, clock, tracer);
  if (err != nullptr) *err = check(p, o);
  return o;
}

std::string Bench::check(const Prepared& p, const Outcome& o) const {
  std::vector<std::string> v;
  testing::oracle_correction_theorem(o.run, v);
  testing::oracle_conservation(o.run, v);
  testing::oracle_stream_accounting(o.run, v);
  // The stream's tasks were generated lazily and consumed; the validator
  // needs them all, so regenerate the same stream.
  std::vector<tasks::Task> streamed;
  if (w_.kind == Kind::kStream) {
    const auto source = stream_source(p.seed);
    while (source->peek().has_value()) streamed.push_back(source->next());
  }
  testing::oracle_schedule_validity(
      o.run.name, *p.cluster,
      w_.kind == Kind::kStream ? streamed : p.workload, v);
  if (o.run.metrics.total_tasks != tasks_per_run()) {
    v.push_back("offered " + std::to_string(o.run.metrics.total_tasks) +
                " tasks, expected " + std::to_string(tasks_per_run()));
  }
  return join(v);
}

std::string Bench::cross_check(std::uint64_t seed, const Outcome& o) const {
  if (w_.kind != Kind::kFig5) return "";
  Outcome ref;
  ref.run.name = "exp::run_once";
  ref.run.metrics = exp::run_once(fig5_, *algo_, seed);
  std::vector<std::string> v;
  testing::oracle_metric_parity(ref.run, o.run, v);
  return join(v);
}

std::vector<std::string> Bench::anchors(std::uint64_t& runs_made) const {
  std::vector<std::string> failures;
  std::vector<Outcome> runs;
  double hit_pct_sum = 0.0;
  for (std::uint32_t i = 0; i < kAnchorSeeds; ++i) {
    const std::uint64_t s = seed(default_base_seed(), i);
    std::string err;
    runs.push_back(run_seed(s, nullptr, &err));
    ++runs_made;
    const Outcome& o = runs.back();
    hit_pct_sum += o.run.metrics.hit_ratio() * 100.0;
    if (err.empty()) err = cross_check(s, o);
    if (!err.empty()) {
      failures.push_back("default seed " + std::to_string(i) + ": " + err);
    }
  }
  const std::uint64_t d = digest(runs);
  if (d != w_.default_digest) {
    std::ostringstream msg;
    msg << "default-seed digest 0x" << std::hex << d << " != pinned 0x"
        << w_.default_digest;
    failures.push_back(msg.str());
  }
  const double golden = golden_hit_pct(w_);
  if (golden >= 0.0) {
    const double mean = hit_pct_sum / double(kAnchorSeeds);
    if (std::fabs(mean - golden) >= 0.05) {
      failures.push_back("FIG5 golden: mean hit " + std::to_string(mean) +
                         "% does not round to " + std::to_string(golden) +
                         "%");
    }
  }
  if (w_.kind == Kind::kStream) {
    // bench_streaming's seed for its gap-1800 ramp point.
    std::string err;
    const Outcome o = run_seed(
        derive_seed(default_base_seed(), stream_id("bench_streaming"),
                    std::uint64_t(kStreamGapUs)),
        nullptr, &err);
    ++runs_made;
    if (!err.empty()) failures.push_back("bench_streaming seed: " + err);
    if (o.run.metrics.deadline_hits != kStreamAnchorHits ||
        o.run.latency_count != kStreamAnchorSamples) {
      failures.push_back("bench_streaming anchor: " +
                         std::to_string(o.run.metrics.deadline_hits) +
                         " hits / " + std::to_string(o.run.latency_count) +
                         " latency samples, committed row has 1961 / 1961");
    }
  }
  return failures;
}

}  // namespace perfbench
