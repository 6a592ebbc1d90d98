// Task-conservation ledger: exact accounting of every offered task.
//
// PR 1 made mailbox delivery non-blocking, which introduced a loss channel
// the metrics could not see: an assignment refused by a full mailbox was
// retired from the batch as if it had been delivered, so it was never
// executed, never re-scheduled, and never counted — a silent violation of
// the correction theorem's promise under overload. The ledger closes that
// hole by tracking every task through an explicit lifecycle:
//
//   arrived → batched → scheduled → delivered → {deadline_hit, exec_miss}
//      │         │           │
//      │         │           ├─ dropped (delivery refused) → batched again
//      │         │           └─ rejected (delivery attempts exhausted)
//      │         └─ culled   (deadline unreachable before scheduling)
//      └─ admission_rejected (open-system admission control turned the
//                             task away at the door; never batched)
//
// and enforcing the conservation invariant at drain time:
//
//   total_tasks == deadline_hits + exec_misses + culled + rejected
//                  + admission_rejected
//
// The pipeline (sched/pipeline.cc) drives the pre-delivery transitions;
// each ExecutionBackend reports the per-task terminal outcome (hit/miss)
// when it drains. Illegal transitions throw InvariantViolation — a task
// can never be double-counted or skipped a state.
//
// The ledger is host-thread-only: backends with worker threads buffer
// outcomes internally and flush them after joining (see ThreadedBackend).
//
// It is also the pipeline's one duplicate-id check: arrive() throws for an
// id already seen, at intake, before the task reaches the batch.
//
// Every transition looks its task up, so the id -> state map is one flat
// open-addressed table (power-of-two capacity, linear probing, at most
// half full, doubled on growth) rather than a node per task. A run never
// forgets an id, so the table needs no erase and no tombstones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tasks/task.h"

namespace rtds::sched {

/// Lifecycle state of one task. kDeadlineHit, kExecMiss, kCulled,
/// kRejected and kAdmissionRejected are terminal; everything else is in
/// flight.
enum class TaskState : std::uint8_t {
  kArrived,      ///< offered to the pipeline, not yet in a batch
  kBatched,      ///< pending in the current batch (also after a drop)
  kScheduled,    ///< assigned by the search, delivery in progress
  kDelivered,    ///< accepted into a worker ready queue
  kDeadlineHit,  ///< executed and met its deadline
  kExecMiss,     ///< executed but missed (theorem: 0 on the DES)
  kCulled,       ///< dropped from a batch, deadline unreachable
  kRejected,     ///< delivery refused max_delivery_attempts times
  kAdmissionRejected,  ///< turned away at admission (open system, full queue)
};

[[nodiscard]] const char* to_string(TaskState state);

/// Aggregate view of a ledger; conserved() is the drain-time invariant.
struct LedgerCounts {
  std::uint64_t total{0};
  std::uint64_t deadline_hits{0};
  std::uint64_t exec_misses{0};
  std::uint64_t culled{0};
  std::uint64_t rejected{0};
  /// Open-system admission control turned the task away before it entered
  /// any batch. Always 0 in closed (whole-workload) runs.
  std::uint64_t admission_rejected{0};
  std::uint64_t in_flight{0};  ///< tasks not yet in a terminal state

  // Transition event counters (a task can contribute several). They exist
  // for external oracles (src/testing) to cross-check the pipeline's
  // aggregate metrics against the per-task lifecycle:
  //   schedule_events == delivery_events + drop_events + rejected
  //   delivery_events == RunMetrics::scheduled
  //   drop_events     == RunMetrics::readmissions
  std::uint64_t schedule_events{0};  ///< batched → scheduled transitions
  std::uint64_t delivery_events{0};  ///< scheduled → delivered transitions
  std::uint64_t drop_events{0};      ///< scheduled → batched (readmissions)

  /// Every offered task reached exactly one terminal state.
  [[nodiscard]] bool conserved() const {
    return in_flight == 0 &&
           total == deadline_hits + exec_misses + culled + rejected +
                        admission_rejected;
  }
};

/// Tracks the lifecycle state of every task in one pipeline run.
class TaskLedger {
 public:
  TaskLedger() = default;

  // -- transitions (each validates the source state) ------------------------
  void arrive(tasks::TaskId id);             ///< (new) → arrived
  void admit(tasks::TaskId id);              ///< arrived → batched
  void schedule(tasks::TaskId id);           ///< batched → scheduled
  void deliver(tasks::TaskId id);            ///< scheduled → delivered
  void drop(tasks::TaskId id);               ///< scheduled → batched (readmit)
  void cull(tasks::TaskId id);               ///< batched → culled
  void reject(tasks::TaskId id);             ///< scheduled → rejected
  void reject_admission(tasks::TaskId id);   ///< arrived → admission_rejected
  void execute(tasks::TaskId id, bool hit);  ///< delivered → hit | miss

  // -- inspection -----------------------------------------------------------
  [[nodiscard]] bool known(tasks::TaskId id) const;
  [[nodiscard]] TaskState state(tasks::TaskId id) const;
  [[nodiscard]] const LedgerCounts& counts() const { return counts_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Throws InvariantViolation unless counts().conserved().
  void check_conserved() const;

  /// Forgets every task; keeps the table's capacity.
  void clear();

 private:
  struct Slot {
    tasks::TaskId id{0};
    TaskState state{TaskState::kArrived};
    bool used{false};
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  void transition(tasks::TaskId id, TaskState from, TaskState to);
  /// Index of the slot holding `id`, or of the vacant slot where it would
  /// go. Requires a non-empty table.
  [[nodiscard]] std::size_t slot_of(tasks::TaskId id) const;
  /// Index of the slot holding `id`, or kAbsent when the id never arrived.
  [[nodiscard]] std::size_t find(tasks::TaskId id) const;
  /// Doubles the table (16 slots at first) and re-inserts every entry.
  void grow();

  std::vector<Slot> slots_;  // power-of-two size, or empty
  unsigned shift_{0};        // 64 - log2(slots_.size())
  std::size_t size_{0};      // used slots
  LedgerCounts counts_;
};

}  // namespace rtds::sched
