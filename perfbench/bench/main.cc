// perfbench: host cost of whole PhasePipeline runs, end to end and by layer.
//
//   perfbench --workload NAME --seconds S [--seed N] [--trace 0|1]
//             [--trace-out PATH]
//   perfbench --selftest        (traced == untraced RunMetrics)
//
// A run cycles a fixed list of seeds derived from --seed. The first pass is
// the reference and warm-up: each run is checked against the oracles and,
// for FIG5, against exp::run_once. Timed passes follow until --seconds have
// elapsed; every timed run must reproduce its reference bit for bit. With
// --trace 0 the last stdout line reports the end-to-end metrics; with
// --trace 1 untraced and traced passes alternate and it reports per-layer
// metrics from the traced ones. Any failed check exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rtds;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  bool seed_given{false};
  double seconds{-1.0};
  bool trace{false};
  std::string trace_out;
  bool selftest{false};
};

// Timed runs needed so that p90 leaves at least 10 runs beyond it.
constexpr std::size_t kMinTimedRuns = 100;
// Hard stop for the timed loop, so a run ends within three minutes.
constexpr double kMaxMeasureSeconds = 120.0;
// Spans kept in memory for the trace file (about 8 MB of CSV): dozens of
// FIG5 runs, or the first half of one streaming run.
constexpr std::size_t kSpanCapacity = std::size_t(1) << 17;

class Tally {
 public:
  void attempt() { ++attempted_; }
  void add_attempts(std::uint64_t n) { attempted_ += n; }
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Host timings and run counts of a set of passes.
struct Timings {
  PhaseClock clock;
  std::vector<double> run_ms;
  std::vector<double> pass_setup_s;
  double run_s{0.0};
  std::uint64_t runs{0};
  std::uint64_t tasks{0};
  std::uint64_t phases{0};
  std::uint64_t vertices{0};
  std::uint64_t leaves{0};
  std::uint64_t culled{0};
  std::uint64_t batch_tasks{0};
  std::uint64_t hits{0};

  /// Offered tasks per second of run time, over every timed run.
  [[nodiscard]] double tasks_per_s() const {
    return run_s > 0.0 ? double(tasks) / run_s : 0.0;
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double seconds_since(std::uint64_t t0) { return double(now_ns() - t0) * 1e-9; }

/// One pass over the seed list: set up every seed's inputs, then run them
/// one after another. `ref` holds the reference outcome of each seed; an
/// empty `ref` makes this the reference pass, which fills it.
void pass(const Bench& bench, const std::vector<std::uint64_t>& seeds,
          std::vector<Outcome>& ref, Tracer* tracer, Timings& t,
          Tally& tally) {
  const bool reference = ref.empty();
  const auto where = [&bench](std::uint64_t seed) {
    return std::string(bench.workload().name) + " seed " +
           std::to_string(seed);
  };
  std::vector<std::optional<Prepared>> prepared(seeds.size());
  const std::uint64_t setup_start = now_ns();
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    try {
      prepared[i] = bench.prepare(seeds[i], tracer);
    } catch (const std::exception& e) {
      tally.attempt();
      tally.fail(where(seeds[i]) + ": setup threw " + e.what());
    }
  }
  t.pass_setup_s.push_back(seconds_since(setup_start));

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (!prepared[i]) {
      if (reference) ref.emplace_back();
      continue;
    }
    tally.attempt();
    try {
      const std::uint64_t t0 = now_ns();
      Outcome o = bench.run(*prepared[i], t.clock, tracer);
      const std::uint64_t t1 = now_ns();
      t.run_ms.push_back(double(t1 - t0) * 1e-6);
      t.run_s += double(t1 - t0) * 1e-9;
      t.runs += 1;
      const sched::RunMetrics& m = o.run.metrics;
      t.tasks += m.total_tasks;
      t.phases += m.phases;
      t.vertices += m.vertices_generated;
      t.leaves += m.leaves;
      t.culled += m.culled;
      t.batch_tasks += o.batch_tasks;
      t.hits += m.deadline_hits;
      std::string err = bench.check(*prepared[i], o);
      prepared[i].reset();
      if (reference) {
        if (err.empty()) err = bench.cross_check(seeds[i], o);
        ref.push_back(std::move(o));
      } else if (err.empty()) {
        err = join(differences(ref[i], o));
        if (!err.empty()) err = "differs from the reference run: " + err;
      }
      if (!err.empty()) tally.fail(where(seeds[i]) + ": " + err);
    } catch (const std::exception& e) {
      tally.fail(where(seeds[i]) + ": threw " + e.what());
      if (reference) ref.emplace_back();
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::vector<Metric> end_to_end(const Timings& t, const Timings& ref_pass,
                               const Tally& tally) {
  const double ok_pct =
      100.0 * double(tally.attempted() - tally.failed()) /
      double(tally.attempted());
  return {
      {"tasks_per_s", t.tasks_per_s(), "1/s"},
      {"run_ms_p50", quantile(t.run_ms, 0.50), "ms"},
      {"run_ms_p90", quantile(t.run_ms, 0.90), "ms"},
      {"phase_us_p50", t.clock.intervals_us.quantile(0.50), "us"},
      {"phase_us_p99", t.clock.intervals_us.quantile(0.99), "us"},
      {"setup_s", quantile(t.pass_setup_s, 0.50), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"hit_pct", 100.0 * double(ref_pass.hits) / double(ref_pass.tasks), "%"},
      {"ok_runs_pct", ok_pct, "%"},
  };
}

struct LayerTimes {
  double sched, search, machine, sim, tasks, quantum, probes, run;
  /// search.phase minus the replayed ordering and PartialSchedule build.
  double expand;
};

LayerTimes layer_times(const Tracer& tr) {
  const auto ns = [&tr](SpanKind k) { return double(tr.total_ns(k)); };
  LayerTimes l{};
  l.run = ns(SpanKind::kRun);
  l.probes = ns(SpanKind::kSearchOrder) + ns(SpanKind::kSearchSetup);
  l.search = ns(SpanKind::kSearchPhase);
  l.machine = ns(SpanKind::kLoad) + ns(SpanKind::kDeliver);
  l.sim = ns(SpanKind::kAdvance) + ns(SpanKind::kWaitUntil) +
          ns(SpanKind::kDrain);
  l.tasks = ns(SpanKind::kSourcePeek) + ns(SpanKind::kSourceNext);
  l.quantum = ns(SpanKind::kQuantum);
  // sched's self time: the run span minus every timed call into another
  // layer and minus the replay probes (work the program does not do).
  l.sched = l.run - l.probes - l.search - l.machine - l.sim - l.tasks;
  l.expand = l.search - l.probes;
  return l;
}

double overhead_pct(const Timings& plain, const Timings& traced) {
  return 100.0 * (plain.tasks_per_s() / traced.tasks_per_s() - 1.0);
}

std::vector<Metric> per_layer(const Tracer& tr, const Timings& traced,
                              const Timings& plain) {
  const auto per_call = [&tr](SpanKind k, double scale) {
    const std::uint64_t n = tr.calls(k);
    return n == 0 ? 0.0 : double(tr.total_ns(k)) / double(n) * scale;
  };
  const LayerTimes l = layer_times(tr);
  const double run_self = l.run - l.probes;
  const double phases = double(traced.phases);
  const double runs = double(traced.runs);
  const double vertices = double(traced.vertices);
  return {
      {"db.build_ms", per_call(SpanKind::kDbBuild, 1e-6), "ms"},
      {"db.txn_gen_ms", per_call(SpanKind::kDbTxnGen, 1e-6), "ms"},
      {"db.to_tasks_ms", per_call(SpanKind::kDbToTasks, 1e-6), "ms"},
      {"tasks.source_next_ns", per_call(SpanKind::kSourceNext, 1.0), "ns"},
      {"tasks.source_calls",
       double(tr.calls(SpanKind::kSourcePeek) +
              tr.calls(SpanKind::kSourceNext)) / runs,
       "count"},
      {"tasks.self_pct", 100.0 * l.tasks / run_self, "%"},
      {"sched.phases", phases / runs, "count"},
      {"sched.batch_tasks_per_phase", double(traced.batch_tasks) / phases,
       "count"},
      {"sched.culled_per_run", double(traced.culled) / runs, "count"},
      {"sched.quantum_ns", per_call(SpanKind::kQuantum, 1.0), "ns"},
      {"sched.pipeline_self_us_per_phase",
       (l.sched - l.quantum) / phases * 1e-3, "us"},
      {"sched.self_pct", 100.0 * l.sched / run_self, "%"},
      {"search.phase_us", per_call(SpanKind::kSearchPhase, 1e-3), "us"},
      {"search.order_us", per_call(SpanKind::kSearchOrder, 1e-3), "us"},
      {"search.setup_us", per_call(SpanKind::kSearchSetup, 1e-3), "us"},
      {"search.expand_ns_per_vertex", l.expand / vertices, "ns"},
      {"search.vertices_per_phase", vertices / phases, "count"},
      {"search.useful_ratio", double(tr.assignments) / vertices, "ratio"},
      {"search.leaf_ratio", double(traced.leaves) / phases, "ratio"},
      {"search.self_pct", 100.0 * l.search / run_self, "%"},
      {"machine.load_ns", per_call(SpanKind::kLoad, 1.0), "ns"},
      {"machine.load_calls_per_phase",
       double(tr.calls(SpanKind::kLoad)) / phases, "count"},
      {"machine.deliver_us", per_call(SpanKind::kDeliver, 1e-3), "us"},
      {"machine.self_pct", 100.0 * l.machine / run_self, "%"},
      {"sim.advance_us", per_call(SpanKind::kAdvance, 1e-3), "us"},
      {"sim.wait_until_us", per_call(SpanKind::kWaitUntil, 1e-3), "us"},
      {"sim.drain_ms", per_call(SpanKind::kDrain, 1e-6), "ms"},
      {"sim.self_pct", 100.0 * l.sim / run_self, "%"},
      {"trace.overhead_pct", overhead_pct(plain, traced), "%"},
  };
}

/// Host cost of one span: two clock reads plus the bookkeeping, measured on
/// a scratch tracer. A timed call's per-call figure includes about half.
double span_cost_ns() {
  Tracer scratch(0);
  constexpr int kSpans = 100000;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kSpans; ++i) {
    scratch.record(SpanKind::kRun, now_ns(), now_ns());
  }
  return double(now_ns() - t0) / kSpans;
}

void print_trace_summary(const Bench& bench, const Tracer& tr,
                         const Timings& traced, const Timings& plain) {
  const LayerTimes l = layer_times(tr);
  const double run_self = l.run - l.probes;
  const std::vector<std::pair<const char*, double>> layers{
      {"sched", l.sched}, {"search", l.search}, {"machine", l.machine},
      {"sim", l.sim},     {"tasks", l.tasks}};
  const auto dominant = std::max_element(
      layers.begin(), layers.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  const double overhead = overhead_pct(plain, traced);
  const Workload& w = bench.workload();
  std::cout << "trace summary: " << w.name << ", " << traced.runs
            << " traced runs, " << traced.phases << " phases\n"
            << "  layer self time, share of traced run time (replay probes "
               "excluded):\n";
  for (const auto& [name, ns] : layers) {
    std::cout << "    " << name << ": " << num(100.0 * ns / run_self)
              << " %  (" << num(ns / double(traced.runs) * 1e-6)
              << " ms per run)\n";
  }
  std::cout << "    (sched includes quantum: "
            << num(100.0 * l.quantum / run_self) << " %; replay probes "
            << num(100.0 * l.probes / l.run) << " % of traced time)\n"
            << "  dominant layer: " << dominant->first << " (predicted "
            << w.predicted_dominant << ": "
            << (std::string(dominant->first) == w.predicted_dominant
                    ? "matches"
                    : "DOES NOT match")
            << ")\n"
            << "  tracing overhead: untraced " << num(plain.tasks_per_s())
            << " tasks/s vs traced " << num(traced.tasks_per_s())
            << " tasks/s (+" << num(overhead) << " % host time)";
  if (overhead > 10.0) {
    std::cout << "; per-call times on this workload are upper bounds";
  }
  std::cout << "\n  one span costs " << num(span_cost_ns())
            << " ns (two clock reads and bookkeeping)";
  const sched::PipelineConfig& cfg = bench.pipeline_config();
  std::cout << "\n  host cost vs simulated cost model: untraced phase p50 "
            << num(plain.clock.intervals_us.quantile(0.5))
            << " us vs phase_overhead " << cfg.phase_overhead.us
            << " us; expansion " << num(l.expand / double(traced.vertices))
            << " ns/vertex vs vertex cost "
            << cfg.vertex_generation_cost.us * 1000 << " ns\n"
            << "  spans: " << tr.logged() << " kept, " << tr.dropped()
            << " beyond the in-memory cap\n";
}

int selftest() {
  int failures = 0;
  for (const Workload& w : workloads()) {
    const Bench bench(w);
    Tracer tracer(kSpanCapacity);
    for (std::uint32_t i = 0; i < 3; ++i) {
      const std::uint64_t s = bench.seed(bench.default_base_seed(), i);
      const Outcome plain = bench.run_seed(s, nullptr);
      const Outcome traced = bench.run_seed(s, &tracer);
      const std::string diff = join(differences(plain, traced));
      std::cout << w.name << " seed " << s << ": "
                << (diff.empty() ? "traced run bit-identical"
                                 : "traced run differs: " + diff)
                << "\n";
      if (!diff.empty()) ++failures;
    }
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--selftest") {
      a.selftest = true;
    } else if (!has_value) {
      return false;
    } else if (flag == "--workload") {
      a.workload = argv[++i];
    } else if (flag == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
      a.seed_given = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string(argv[++i]) != "0";
    } else if (flag == "--trace-out") {
      a.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return a.selftest || (!a.workload.empty() && a.seconds > 0.0);
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  const Bench bench(*w);
  Tally tally;

  std::uint64_t anchor_runs = 0;
  for (const std::string& f : bench.anchors(anchor_runs)) {
    tally.fail(std::string(w->name) + " anchor: " + f);
  }
  tally.add_attempts(anchor_runs);

  const std::uint64_t base = a.seed_given ? a.seed : bench.default_base_seed();
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < w->seeds_per_pass; ++i) {
    seeds.push_back(bench.seed(base, i));
  }
  std::vector<Outcome> ref;
  Timings ref_pass;
  pass(bench, seeds, ref, nullptr, ref_pass, tally);

  Timings plain;
  Timings traced;
  Tracer tracer(a.trace ? kSpanCapacity : 0);
  const std::uint64_t start = now_ns();
  for (std::uint64_t n = 0;; ++n) {
    const double elapsed = seconds_since(start);
    const bool enough =
        elapsed >= a.seconds && plain.runs >= kMinTimedRuns &&
        plain.pass_setup_s.size() >= 2 && (!a.trace || traced.runs > 0);
    if (enough || elapsed >= kMaxMeasureSeconds) break;
    const bool trace_this = a.trace && n % 2 == 1;
    pass(bench, seeds, ref, trace_this ? &tracer : nullptr,
         trace_this ? traced : plain, tally);
  }

  std::cout << "perfbench " << w->name << " (" << w->algo << "), base seed "
            << base << ", " << seeds.size() << " seeds per pass, "
            << plain.runs << " timed runs" << (a.trace ? " untraced, " : "")
            << (a.trace ? std::to_string(traced.runs) + " traced" : "")
            << "\n";
  if (!a.trace) {
    print_result(tally, end_to_end(plain, ref_pass, tally));
  } else {
    print_trace_summary(bench, tracer, traced, plain);
    if (!a.trace_out.empty()) {
      std::ofstream out(a.trace_out);
      tracer.write_csv(out);
      if (!out) {
        std::cerr << "perfbench: cannot write " << a.trace_out << "\n";
        return 1;
      }
    }
    print_result(tally, per_layer(tracer, traced, plain));
  }
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  if (!perfbench::parse(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload NAME --seconds S [--seed N] "
                 "[--trace 0|1] [--trace-out PATH]\n"
                 "       perfbench --selftest\n";
    return 2;
  }
  try {
    if (a.selftest) return perfbench::selftest();
    return perfbench::run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
