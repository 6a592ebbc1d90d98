#include "sched/ledger.h"

#include <algorithm>
#include <bit>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace rtds::sched {

const char* to_string(TaskState state) {
  switch (state) {
    case TaskState::kArrived: return "arrived";
    case TaskState::kBatched: return "batched";
    case TaskState::kScheduled: return "scheduled";
    case TaskState::kDelivered: return "delivered";
    case TaskState::kDeadlineHit: return "deadline_hit";
    case TaskState::kExecMiss: return "exec_miss";
    case TaskState::kCulled: return "culled";
    case TaskState::kRejected: return "rejected";
    case TaskState::kAdmissionRejected: return "admission_rejected";
  }
  return "unknown";
}

void TaskLedger::arrive(tasks::TaskId id) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  Slot& slot = slots_[slot_of(id)];
  RTDS_CHECK_MSG(!slot.used, "TaskLedger: task arrived twice");
  slot = Slot{id, TaskState::kArrived, true};
  ++size_;
  ++counts_.total;
  ++counts_.in_flight;
}

void TaskLedger::admit(tasks::TaskId id) {
  transition(id, TaskState::kArrived, TaskState::kBatched);
}

void TaskLedger::schedule(tasks::TaskId id) {
  transition(id, TaskState::kBatched, TaskState::kScheduled);
  ++counts_.schedule_events;
}

void TaskLedger::deliver(tasks::TaskId id) {
  transition(id, TaskState::kScheduled, TaskState::kDelivered);
  ++counts_.delivery_events;
}

void TaskLedger::drop(tasks::TaskId id) {
  transition(id, TaskState::kScheduled, TaskState::kBatched);
  ++counts_.drop_events;
}

void TaskLedger::cull(tasks::TaskId id) {
  transition(id, TaskState::kBatched, TaskState::kCulled);
  ++counts_.culled;
  --counts_.in_flight;
}

void TaskLedger::reject(tasks::TaskId id) {
  transition(id, TaskState::kScheduled, TaskState::kRejected);
  ++counts_.rejected;
  --counts_.in_flight;
}

void TaskLedger::reject_admission(tasks::TaskId id) {
  transition(id, TaskState::kArrived, TaskState::kAdmissionRejected);
  ++counts_.admission_rejected;
  --counts_.in_flight;
}

void TaskLedger::execute(tasks::TaskId id, bool hit) {
  transition(id, TaskState::kDelivered,
             hit ? TaskState::kDeadlineHit : TaskState::kExecMiss);
  if (hit) {
    ++counts_.deadline_hits;
  } else {
    ++counts_.exec_misses;
  }
  --counts_.in_flight;
}

bool TaskLedger::known(tasks::TaskId id) const {
  return find(id) != kAbsent;
}

TaskState TaskLedger::state(tasks::TaskId id) const {
  const std::size_t i = find(id);
  RTDS_CHECK_MSG(i != kAbsent, "TaskLedger: unknown task id");
  return slots_[i].state;
}

void TaskLedger::check_conserved() const {
  if (counts_.conserved()) return;
  std::ostringstream os;
  os << "task conservation violated: total " << counts_.total
     << " != deadline_hits " << counts_.deadline_hits << " + exec_misses "
     << counts_.exec_misses << " + culled " << counts_.culled
     << " + rejected " << counts_.rejected << " + admission_rejected "
     << counts_.admission_rejected << " (in flight " << counts_.in_flight
     << ")";
  RTDS_CHECK_MSG(false, os.str());
}

void TaskLedger::clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
  counts_ = LedgerCounts{};
}

void TaskLedger::transition(tasks::TaskId id, TaskState from, TaskState to) {
  const std::size_t i = find(id);
  RTDS_CHECK_MSG(i != kAbsent, "TaskLedger: unknown task id");
  Slot& slot = slots_[i];
  if (slot.state != from) {
    std::ostringstream os;
    os << "TaskLedger: task " << id << " is " << to_string(slot.state)
       << ", cannot move " << to_string(from) << " -> " << to_string(to);
    RTDS_CHECK_MSG(false, os.str());
  }
  slot.state = to;
}

std::size_t TaskLedger::slot_of(tasks::TaskId id) const {
  // Fibonacci hashing: the top bits of id * 2^64/phi, so runs of
  // consecutive or strided ids spread over the whole table.
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
      (std::uint64_t{id} * 0x9E3779B97F4A7C15ULL) >> shift_);
  // At most half full, so the probe always reaches a vacant slot.
  while (slots_[i].used && slots_[i].id != id) i = (i + 1) & mask;
  return i;
}

std::size_t TaskLedger::find(tasks::TaskId id) const {
  if (slots_.empty()) return kAbsent;
  const std::size_t i = slot_of(id);
  return slots_[i].used ? i : kAbsent;
}

void TaskLedger::grow() {
  constexpr std::size_t kInitialSlots = 16;
  std::vector<Slot> old = std::exchange(
      slots_, std::vector<Slot>(slots_.empty() ? kInitialSlots
                                               : 2 * slots_.size()));
  shift_ = 64U - static_cast<unsigned>(std::countr_zero(slots_.size()));
  for (const Slot& slot : old) {
    if (slot.used) slots_[slot_of(slot.id)] = slot;
  }
}

}  // namespace rtds::sched
