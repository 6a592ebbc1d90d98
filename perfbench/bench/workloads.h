// The benchmark's workloads: how one seed's inputs are built, how one
// whole PhasePipeline run executes on them, and what makes a run correct.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "machine/cluster.h"
#include "probes.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/trace.h"
#include "sim/simulator.h"
#include "tasks/arrival_source.h"
#include "testing/oracles.h"

namespace perfbench {

enum class Kind { kFig5, kStream };

struct Workload {
  const char* name;
  Kind kind;
  const char* algo;  // AlgorithmRegistry spec
  /// Seeds in one pass; a run cycles the same list pass after pass, so a
  /// rerun of a seed must reproduce the first pass exactly.
  std::uint32_t seeds_per_pass;
  /// Layer predicted to dominate run time (checked in the traced run).
  const char* predicted_dominant;
  /// Pinned digest of the first kAnchorSeeds runs of the default seeds.
  std::uint64_t default_digest;
};

/// Runs in the pinned default-seed digest (and in the FIG5 golden).
inline constexpr std::uint32_t kAnchorSeeds = 10;

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Everything about a run that must repeat bit for bit.
struct Outcome {
  /// RunMetrics plus, for streaming runs, the schedule-latency digest.
  rtds::testing::BackendRun run;
  std::uint64_t batch_tasks{0};  // sum of PhaseRecord::batch_size
};

/// Where two runs differ, per the repository's metric-parity oracle (every
/// RunMetrics field but host time, and the latency digest) plus batch
/// sizes; empty when identical.
std::vector<std::string> differences(const Outcome& a, const Outcome& b);

/// The violations joined into one line.
std::string join(const std::vector<std::string>& violations);

/// FNV-1a over (deadline_hits, culled, phases, vertices_generated) of each
/// run, in order.
std::uint64_t digest(const std::vector<Outcome>& runs);

/// Histogram of positive values in 1%-wide logarithmic buckets from 1 ns
/// to 1000 s (in microseconds). Its quantiles are within 1% of the exact
/// sample quantiles, and its memory stays fixed however long a run
/// measures, so peak RSS shows the program, not the benchmark's samples.
class LogHistogram {
 public:
  LogHistogram();
  void add(double us);
  /// Requires count() > 0.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_{0};
};

/// Observer timing the host interval between consecutive phases of a run.
class PhaseClock final : public rtds::sched::PhaseObserver {
 public:
  /// Starts a run: the next phase has no predecessor to measure from.
  void begin_run(Tracer* tracer);
  void on_phase(const rtds::sched::PhaseRecord& record) override;

  LogHistogram intervals_us;  // every interval since construction
  std::uint64_t batch_tasks{0};      // this run's sum of batch sizes

 private:
  std::uint64_t last_ns_{0};
  Tracer* tracer_{nullptr};
};

/// One seed's inputs plus the machine they run on, built by setup.
struct Prepared {
  std::uint64_t seed{0};
  std::vector<rtds::tasks::Task> workload;  // FIG5 cell
  /// The open stream; for a traced FIG5 run, a replay of `workload` (the
  /// decorated pipeline consumes the cell through a source).
  std::unique_ptr<rtds::tasks::ArrivalSource> source;
  std::unique_ptr<rtds::machine::Cluster> cluster;
  std::unique_ptr<rtds::sim::Simulator> simulator;
  std::unique_ptr<rtds::sched::SimBackend> backend;
};

/// Per-process state for one workload: the algorithm, quantum policy and
/// pipeline configuration shared by all of its runs.
class Bench {
 public:
  explicit Bench(const Workload& workload);

  [[nodiscard]] const Workload& workload() const { return w_; }
  /// Seed of run `i` of a pass off base seed `base`. FIG5 uses the
  /// experiment harness's derive_seed(base, i), so the default base seed
  /// reproduces the FIG5 golden repetitions.
  [[nodiscard]] std::uint64_t seed(std::uint64_t base, std::uint32_t i) const;
  [[nodiscard]] std::uint64_t default_base_seed() const;

  /// Builds one seed's inputs. With a tracer, the db calls are spans under
  /// a setup span.
  [[nodiscard]] Prepared prepare(std::uint64_t seed, Tracer* tracer) const;

  /// Runs the pipeline on prepared inputs. With a tracer, the pipeline
  /// runs through the tracing decorators inside a run span.
  [[nodiscard]] Outcome run(Prepared& prepared, PhaseClock& clock,
                            Tracer* tracer) const;

  /// setup + run + check in one call, untimed; check()'s verdict goes to
  /// `err` when given.
  [[nodiscard]] Outcome run_seed(std::uint64_t seed, Tracer* tracer,
                                 std::string* err = nullptr) const;

  /// Oracles every run must pass, on the outcome and on the execution log
  /// of the prepared machine it ran on; empty when the run is correct.
  [[nodiscard]] std::string check(const Prepared& prepared,
                                  const Outcome& outcome) const;

  /// Cross-check against the program's own harness for this seed (FIG5:
  /// exp::run_once); empty when it agrees or there is nothing to compare.
  [[nodiscard]] std::string cross_check(std::uint64_t seed,
                                        const Outcome& outcome) const;

  /// Anchors to committed results, run on fixed seeds: the default-seed
  /// digest, the FIG5 golden and the bench_streaming row. Returns one
  /// message per failed anchor; `runs` counts the runs made.
  [[nodiscard]] std::vector<std::string> anchors(std::uint64_t& runs) const;

  /// Offered tasks per run.
  [[nodiscard]] std::uint64_t tasks_per_run() const;
  /// Simulated host cost of one vertex and of one phase's fixed turnover.
  [[nodiscard]] const rtds::sched::PipelineConfig& pipeline_config() const {
    return pipeline_cfg_;
  }

 private:
  [[nodiscard]] std::unique_ptr<rtds::tasks::ArrivalSource> stream_source(
      std::uint64_t seed) const;

  const Workload& w_;
  rtds::exp::ExperimentConfig fig5_;
  std::unique_ptr<rtds::sched::PhaseAlgorithm> algo_;
  std::unique_ptr<rtds::sched::QuantumPolicy> quantum_;
  rtds::sched::PipelineConfig pipeline_cfg_;
  rtds::sched::StreamOptions stream_opts_;
  std::optional<rtds::search::TaskOrder> order_;
};

}  // namespace perfbench
