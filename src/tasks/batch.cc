#include "tasks/batch.h"

#include <utility>

#include "common/error.h"

namespace rtds::tasks {

void Batch::merge_arrivals(const std::vector<Task>& arrived) {
  tasks_.insert(tasks_.end(), arrived.begin(), arrived.end());
}

template <typename Drop>
void Batch::compact(Drop drop) {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (drop(tasks_[i], i)) continue;
    if (keep != i) tasks_[keep] = std::move(tasks_[i]);
    ++keep;
  }
  tasks_.resize(keep);
}

void Batch::remove_marked(const std::vector<std::uint8_t>& marked) {
  RTDS_REQUIRE(marked.size() == tasks_.size(),
               "Batch::remove_marked: one flag per pending task required");
  compact([&](const Task&, std::size_t i) { return marked[i] != 0; });
}

void Batch::cull_missed(SimTime t, std::vector<Task>& culled) {
  culled.clear();
  compact([&](Task& task, std::size_t) {
    if (!task.deadline_unreachable(t)) return false;
    culled.push_back(task);
    return true;
  });
}

SimDuration Batch::min_slack(SimTime t) const {
  RTDS_REQUIRE(!tasks_.empty(), "min_slack of empty batch");
  SimDuration best = SimDuration::max();
  for (const Task& task : tasks_) {
    best = min_duration(best, task.slack_at(t));
  }
  return best;
}

}  // namespace rtds::tasks
