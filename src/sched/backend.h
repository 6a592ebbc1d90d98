// Execution backends for the phase pipeline.
//
// The scheduling phase of Sec. 4 (Batch(j) -> Q_s(j) -> search -> deliver
// S_j) is pure algorithm: the only things it needs from the world are a
// clock, the residual load of each worker, and a way to hand a schedule to
// the worker ready queues. ExecutionBackend captures exactly that surface,
// so ONE PhasePipeline (sched/pipeline.h) drives every deployment:
//
//   SimBackend      — machine::Cluster on the DES clock (the paper's
//                     instrument; all figures run here, and multi-host
//                     runs give each shard its own)
//   ThreadedBackend — std::thread workers + mailboxes on the wall clock
//                     (src/runtime/threaded_backend.h)
//
// A new deployment (async batching, work stealing, remote workers) is one
// new backend file; the phase logic is never duplicated again.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/ledger.h"
#include "sim/simulator.h"

namespace rtds::sched {

/// Terminal accounting a backend reports once all delivered work has run.
struct BackendStats {
  std::uint64_t deadline_hits{0};
  std::uint64_t exec_misses{0};
  SimTime finish_time{SimTime::zero()};  ///< all delivered work drained
};

/// Outcome of one deliver() call. A backend with bounded ready queues may
/// refuse part of the schedule; the refused assignments are returned by
/// identity (not just counted) so the pipeline can readmit the tasks into
/// the next batch instead of losing them.
struct DeliveryResult {
  std::size_t accepted{0};
  std::vector<machine::ScheduledAssignment> undelivered;
};

/// The machine surface the phase pipeline schedules against.
///
/// Time flows differently per backend: the DES backend advances its clock
/// only when told (advance/wait_until), while the threaded backend's wall
/// clock runs by itself (its advance is a no-op — the real search already
/// consumed real time). The pipeline only ever observes time through now().
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual std::uint32_t num_workers() const = 0;
  [[nodiscard]] virtual const machine::Interconnect& interconnect() const = 0;

  /// Current time on this backend's clock.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Residual committed work on `worker` at time t (Load_k in Fig. 3).
  [[nodiscard]] virtual SimDuration load(std::uint32_t worker,
                                         SimTime t) const = 0;

  /// Blocks (or advances the simulated clock) until time t; no-op if t has
  /// already passed.
  virtual void wait_until(SimTime t) = 0;

  /// Charges `host_busy` scheduling time: the host processor was occupied
  /// generating vertices and delivering S_j for this long.
  virtual void advance(SimDuration host_busy) = 0;

  /// Appends the schedule to the worker ready queues. Backends with bounded
  /// queues report the assignments they refused (counted by the pipeline as
  /// overflow drops and readmitted into the next batch); the DES backend
  /// accepts everything.
  virtual DeliveryResult deliver(
      const std::vector<machine::ScheduledAssignment>& schedule) = 0;

  /// Waits for every delivered task to finish executing and reports the
  /// terminal counts. Called exactly once, after the last phase.
  virtual BackendStats drain() = 0;

  /// Attaches the pipeline's task ledger. A bound backend must report the
  /// per-task terminal outcome (hit or miss) of every accepted delivery via
  /// ledger->execute() before drain() returns; the pipeline binds the
  /// ledger before the first phase and detaches it (nullptr) after drain.
  /// The ledger is only ever touched from the host thread.
  virtual void bind_ledger(TaskLedger* ledger) = 0;
};

/// DES backend: machine::Cluster for execution, sim::Simulator for time.
/// Both are borrowed and left in their final state so callers can inspect
/// the completion log; hit/miss counts are reported as deltas against the
/// construction-time snapshot (clusters may be reused across runs).
class SimBackend final : public ExecutionBackend {
 public:
  SimBackend(machine::Cluster& cluster, sim::Simulator& sim);

  [[nodiscard]] std::uint32_t num_workers() const override;
  [[nodiscard]] const machine::Interconnect& interconnect() const override;
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] SimDuration load(std::uint32_t worker,
                                 SimTime t) const override;
  void wait_until(SimTime t) override;
  void advance(SimDuration host_busy) override;
  DeliveryResult deliver(
      const std::vector<machine::ScheduledAssignment>& schedule) override;
  BackendStats drain() override;
  void bind_ledger(TaskLedger* ledger) override;

 private:
  machine::Cluster& cluster_;
  sim::Simulator& sim_;
  machine::ExecutionStats initial_;
  std::size_t initial_log_size_;
  TaskLedger* ledger_{nullptr};
};

}  // namespace rtds::sched
