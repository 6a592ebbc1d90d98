// Batch maintenance (Sec. 4).
//
// The input to each scheduling phase j is Batch(j). At the end of phase j,
// Batch(j+1) is formed by removing from Batch(j) the tasks that were
// scheduled and the tasks whose deadlines were missed, and by adding the
// tasks that arrived during phase j. Scheduled tasks never re-enter a later
// batch (they are delivered to worker ready queues instead).
//
// Batch shape across phases: removals (retired and culled tasks) compact
// the batch in place, and new tasks (arrivals, readmissions) are appended.
// So the tasks of Batch(j) that are still pending in Batch(j+1) keep their
// relative order and come before every task new to Batch(j+1). The search
// engine relies on this for speed, not for correctness: it carries the
// consideration order from one phase to the next and sorts only the tasks
// past the carried ones (search/engine.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/time.h"
#include "tasks/task.h"

namespace rtds::tasks {

/// Mutable batch of pending tasks between scheduling phases.
///
/// Order is preserved across operations (arrival order, then merge order)
/// so that schedulers see a deterministic candidate ordering.
class Batch {
 public:
  Batch() = default;

  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// Appends newly arrived tasks. An id already pending is skipped instead
  /// of aborting the host — a readmitted task may race a same-id arrival.
  /// Returns the number of tasks actually merged.
  std::size_t merge_arrivals(const std::vector<Task>& arrived);

  /// Returns a task to the batch after its delivery was refused (the
  /// readmission path of the overload-robustness layer). No-op returning
  /// false when the id is already pending — which is the common case, since
  /// the pipeline only retires tasks the backend actually accepted.
  bool readmit(const Task& task);

  /// Removes the tasks that left the pipeline in the phase that just
  /// ended, by batch position: `marked` holds one flag per task in batch
  /// order, and the tasks flagged non-zero are dropped in one
  /// order-preserving pass. InvalidArgument unless marked.size() == size().
  void remove_marked(const std::vector<std::uint8_t>& marked);

  /// Culls tasks whose deadlines can no longer be met at time t
  /// (p_i + t_c > d_i, Sec. 4.1) in one order-preserving pass. `culled` is
  /// cleared and receives the culled tasks in batch order (the experiment
  /// harness counts them as deadline misses).
  void cull_missed(SimTime t, std::vector<Task>& culled);

  /// As above, returning the culled tasks.
  std::vector<Task> cull_missed(SimTime t) {
    std::vector<Task> culled;
    cull_missed(t, culled);
    return culled;
  }

  /// Minimum slack over the batch at time t (Min_Slack in Fig. 3).
  /// Requires a non-empty batch.
  [[nodiscard]] SimDuration min_slack(SimTime t) const;

  /// Total processing demand of the batch (used by ablation benches).
  [[nodiscard]] SimDuration total_processing() const;

  void clear() {
    tasks_.clear();
    ids_.clear();
  }

 private:
  /// Keeps the tasks for which drop(task, position) is false, in order.
  template <typename Drop>
  void compact(Drop drop);

  std::vector<Task> tasks_;
  std::unordered_set<TaskId> ids_;  // duplicate detection
};

}  // namespace rtds::tasks
