// The backend-agnostic scheduling pipeline (Sec. 4).
//
// One implementation of the self-adjusting scheduling phase drives every
// deployment of the system:
//
//   phase j:  t_s = backend.now()
//     Batch(j)  = Batch(j-1) - scheduled - missed + arrivals during j-1
//     Q_s(j)    = quantum policy (Fig. 3), from Min_Slack and Min_Load
//     search    = phase algorithm with vertex budget
//                 (Q_s - phase_overhead) / vertex_cost
//     t_e       = t_s + vertices_generated * vertex_cost + phase_overhead
//     S_j is delivered to the worker ready queues at t_e; phase j+1 starts.
//
// Scheduling overhead is charged on the backend's clock exactly as the
// paper charges physical time on the Paragon's host processor: every
// generated vertex costs `vertex_generation_cost`, and the predictive
// feasibility test inside the search already accounted for the full
// quantum, so delivering early can only improve timeliness (correction
// theorem). On the DES backend the charge advances the simulated clock;
// on the threaded backend the wall clock paid for the search as it ran.
//
// Batch maintenance, quantum computation, vertex budgeting, feasibility
// snapshotting and metrics/trace emission all live HERE and only here; the
// backends (sched/backend.h) supply time, worker loads and delivery. This
// is the one way to run a deployment:
//
//   SimBackend backend(cluster, sim);              // DES (the figures)
//   PhasePipeline(*algorithm, *quantum, cfg).run(workload, backend);
//
// A live run passes a runtime::ThreadedBackend instead, with
// cfg.phase_overhead = 0: its per-phase cost is the wall time it took.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "sched/algorithm.h"
#include "sched/backend.h"
#include "sched/ledger.h"
#include "sched/quantum.h"
#include "sched/trace.h"
#include "tasks/arrival_source.h"
#include "tasks/task.h"

namespace rtds::sched {

using tasks::Task;

/// End-to-end metrics of one scheduling run — the ONE metrics struct shared
/// by the DES, threaded and partitioned deployments, so runs are directly
/// comparable across backends.
struct RunMetrics {
  /// Canonical spec of the algorithm that produced this run (the
  /// PhaseAlgorithm's name()) — every run is attributable by name, and the
  /// cross-backend parity oracles compare it like any other field.
  std::string algorithm;

  std::uint64_t total_tasks{0};
  std::uint64_t scheduled{0};        ///< delivered to a worker
  std::uint64_t deadline_hits{0};    ///< executed and met deadline
  std::uint64_t exec_misses{0};      ///< executed but missed (theorem: 0)
  std::uint64_t culled{0};           ///< dropped from a batch, unreachable
  /// Tasks retired explicitly after delivery was refused
  /// `max_delivery_attempts` times (bounded-mailbox backends only).
  std::uint64_t rejected{0};
  /// Arrivals turned away at the door by open-system admission control
  /// (run_stream with StreamOptions::max_pending; always 0 in closed runs).
  /// Admission-rejected tasks are counted in total_tasks but never batched.
  std::uint64_t admission_rejected{0};
  /// Delivery refusals by a full ready queue (bounded-mailbox backends;
  /// always 0 on the DES backends). An event counter: one task dropped and
  /// readmitted n times contributes n. Counted loudly, never blocks the
  /// host — refused tasks re-enter the next batch (see `readmissions`).
  std::uint64_t overflow_drops{0};
  /// Tasks returned to the batch after a refused delivery (each readmission
  /// of the same task counts once).
  std::uint64_t readmissions{0};
  /// Phases that ended in a backpressure pause because part of their
  /// schedule was refused.
  std::uint64_t backpressure_waits{0};
  /// Phases where the progress floor (phase_overhead + vertex_cost) raised
  /// Q_s above the policy allocation — such a quantum may exceed both
  /// max_quantum and the paper's Q_s <= max(Min_Slack, Min_Load) bound.
  std::uint64_t quantum_floor_overrides{0};

  std::uint64_t phases{0};
  std::uint64_t vertices_generated{0};
  std::uint64_t expansions{0};
  std::uint64_t backtracks{0};
  std::uint64_t dead_ends{0};
  std::uint64_t leaves{0};           ///< phases reaching a complete schedule
  std::uint64_t budget_exhaustions{0};

  SimTime finish_time{SimTime::zero()};       ///< all work drained
  SimDuration scheduling_time{SimDuration::zero()};  ///< host busy time
  /// Real (host wall-clock) nanoseconds spent inside the phase algorithm's
  /// search across all phases — the scheduling-processor utilization the
  /// DES and threaded backends report. Unlike every other field this is
  /// measured, not simulated: it varies run to run and is deliberately
  /// excluded from the cross-backend parity oracles.
  std::uint64_t search_wall_ns{0};
  SimDuration allocated_quantum{SimDuration::zero()};  ///< sum of Q_s(j)
  /// Smallest and largest Q_s(j) allocated across phases — the spread shows
  /// the self-adjusting criterion at work (equal for a fixed quantum).
  SimDuration min_quantum_seen{SimDuration::max()};
  SimDuration max_quantum_seen{SimDuration::zero()};

  /// Deadline compliance: fraction of all offered tasks that completed by
  /// their deadline (the paper's primary metric).
  [[nodiscard]] double hit_ratio() const {
    return total_tasks == 0
               ? 1.0
               : double(deadline_hits) / double(total_tasks);
  }
  /// Tasks that did not hit their deadline. Under the conservation
  /// invariant (total == hits + exec_misses + culled + rejected +
  /// admission_rejected) this is exactly total_tasks - deadline_hits.
  [[nodiscard]] std::uint64_t misses() const {
    return exec_misses + culled + rejected + admission_rejected;
  }
};

/// Configuration of the pipeline itself (algorithm- and machine-independent).
struct PipelineConfig {
  /// Simulated cost of generating + evaluating one vertex on the host
  /// processor (Sec. 4.1's definition of vertex generation).
  SimDuration vertex_generation_cost{usec(10)};

  /// Fixed per-phase cost: batch maintenance (merge/cull) plus delivering
  /// S_j to the worker ready queues over the interconnect. Without it,
  /// infinitely short phases would be free, which no real pipeline offers
  /// — this is what makes the Sec. 4.2 quantum criterion a genuine
  /// trade-off. Charged inside the quantum: the vertex budget of phase j
  /// is (Q_s(j) - phase_overhead) / vertex_generation_cost, so the
  /// correction theorem's bound t_e <= t_s + Q_s still holds. The threaded
  /// backend runs with zero overhead: its per-phase cost is real wall time.
  SimDuration phase_overhead{usec(50)};

  /// How often the pipeline will offer the same task to a backend before
  /// retiring it as `rejected`. Refused deliveries re-enter the next batch
  /// (readmission) until this budget is spent. 0 means unbounded: the task
  /// is readmitted until delivered or culled. 1 disables readmission
  /// (every refused delivery is rejected immediately and counted).
  std::uint32_t max_delivery_attempts{8};

  /// Minimum backpressure pause after a phase whose delivery was partially
  /// refused: the host waits before rescheduling instead of burning
  /// delivery attempts in a hot loop. The actual pause stretches to the
  /// residual load of the least-loaded refused worker (when larger) and is
  /// capped by the batch's min slack so waiting alone never makes a
  /// pending task unreachable. Zero disables backpressure.
  SimDuration delivery_backpressure{usec(200)};
};

/// Open-system service knobs for PhasePipeline::run_stream.
struct StreamOptions {
  /// Admission control: an arrival is turned away — counted as
  /// admission_rejected, never batched — when the pending batch already
  /// holds this many tasks. This is what bounds the host's memory when the
  /// offered rate exceeds what the cluster can drain: without it an
  /// overloaded open system grows its batch (and its per-phase search
  /// input) without limit. 0 disables admission control.
  std::size_t max_pending{0};

  /// Shape of the schedule-latency histogram (arrival → delivery
  /// acceptance, microseconds) run_stream records into StreamStats.
  double latency_lo_us{0.0};
  double latency_hi_us{1.0e6};
  std::size_t latency_buckets{200};
};

/// Streaming-only outputs of a run. Closed runs have no schedule latency:
/// with the whole workload present up front, arrival → delivery time is an
/// artifact of batch order, not service behavior.
struct StreamStats {
  explicit StreamStats(const StreamOptions& options)
      : schedule_latency(options.latency_lo_us, options.latency_hi_us,
                         options.latency_buckets) {}

  /// Per-task arrival → delivery-acceptance latency, recorded at t_e for
  /// every assignment the backend accepted. A readmitted task is recorded
  /// once, at the delivery that finally succeeded — the refused attempts
  /// are part of its latency, not separate samples.
  Histogram schedule_latency;
};

/// Drives a PhaseAlgorithm + QuantumPolicy over an ExecutionBackend.
class PhasePipeline {
 public:
  /// The algorithm and quantum policy must outlive the pipeline.
  PhasePipeline(const PhaseAlgorithm& algorithm, const QuantumPolicy& quantum,
                PipelineConfig config = {});

  /// Runs the pipeline until every task has been executed, culled or
  /// rejected. `workload` must be sorted by arrival time. The backend is
  /// left in its final state so callers can inspect logs. An optional
  /// observer receives one PhaseRecord per scheduling phase (it must
  /// outlive the call). An optional ledger records every task's lifecycle
  /// (a run always keeps one internally when none is supplied); the
  /// conservation invariant total == hits + exec_misses + culled + rejected
  /// is enforced at drain time either way.
  RunMetrics run(const std::vector<Task>& workload, ExecutionBackend& backend,
                 PhaseObserver* observer = nullptr,
                 TaskLedger* ledger = nullptr) const;

  /// Open-system entry point: pulls arrivals incrementally from `source`
  /// instead of requiring the whole workload up front, applies
  /// `options.max_pending` admission control, and (when `stats` is non-null)
  /// records per-task schedule latency into `stats->schedule_latency`.
  /// Everything else — phase loop, quantum policy, readmission, ledger
  /// conservation — is byte-for-byte the closed pipeline: run() is this
  /// entry point over a VectorArrivalSource with admission control off.
  /// Runs until the source is exhausted AND every admitted task reached a
  /// terminal state.
  RunMetrics run_stream(tasks::ArrivalSource& source,
                        ExecutionBackend& backend,
                        const StreamOptions& options = {},
                        StreamStats* stats = nullptr,
                        PhaseObserver* observer = nullptr,
                        TaskLedger* ledger = nullptr) const;

 private:
  RunMetrics run_core(tasks::ArrivalSource& source, ExecutionBackend& backend,
                      const StreamOptions& options, StreamStats* stats,
                      PhaseObserver* observer, TaskLedger* ledger) const;

  const PhaseAlgorithm& algorithm_;
  const QuantumPolicy& quantum_;
  PipelineConfig config_;
};

}  // namespace rtds::sched
