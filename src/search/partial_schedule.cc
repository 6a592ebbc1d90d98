#include "search/partial_schedule.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace rtds::search {

PartialSchedule::PartialSchedule(const std::vector<Task>* batch,
                                 const std::vector<SimDuration>& base_loads,
                                 SimTime delivery_time,
                                 const machine::Interconnect* net) {
  reset(batch, base_loads, delivery_time, net, nullptr);
}

void PartialSchedule::reset(const std::vector<Task>* batch,
                            const std::vector<SimDuration>& base_loads,
                            SimTime delivery_time,
                            const machine::Interconnect* net,
                            const std::uint32_t* order) {
  RTDS_REQUIRE(batch != nullptr && net != nullptr,
               "PartialSchedule: null batch or interconnect");
  RTDS_REQUIRE(base_loads.size() == net->num_workers(),
               "PartialSchedule: base_loads size != worker count");
  for (SimDuration d : base_loads) {
    RTDS_REQUIRE(!d.is_negative(), "PartialSchedule: negative base load");
  }
  batch_ = batch;
  net_ = net;
  delivery_time_ = delivery_time;
  n_ = static_cast<std::uint32_t>(batch->size());
  ce_us_.resize(base_loads.size());
  max_ce_us_ = 0;
  for (std::size_t k = 0; k < base_loads.size(); ++k) {
    ce_us_[k] = base_loads[k].us;
    max_ce_us_ = std::max(max_ce_us_, ce_us_[k]);
  }
  cut_through_ = net->model() == machine::RoutingModel::kCutThrough;
  comm_us_ = net->link_cost().us;
  path_.clear();
  gang_undo_.clear();
  path_.reserve(n_);
  fill(order);
}

void PartialSchedule::set_consideration_order(const std::uint32_t* order) {
  RTDS_REQUIRE(path_.empty(),
               "set_consideration_order: schedule already has assignments");
  fill(order);
}

void PartialSchedule::fill(const std::uint32_t* order) {
  const std::uint32_t n = n_;
  const std::size_t words = (std::size_t{n} + 63) / 64;
  // Whole words of lanes, so the word kernel never reads past the end;
  // lanes at or past n keep whatever they held (their bits stay clear).
  p_us_.resize(words * 64);
  es_us_.resize(words * 64);
  d_us_.resize(words * 64);
  aff_bits_.resize(words * 64);
  width_.resize(words * 64);
  order_ = order;
  if (order != nullptr) pos_of_task_.assign(n, n);  // sentinel: not yet seen
  has_gangs_ = false;
  const Task* tasks = batch_->data();
  for (std::uint32_t pos = 0; pos < n; ++pos) {
    std::uint32_t task = pos;
    if (order != nullptr) {
      task = order[pos];
      RTDS_REQUIRE(task < n && pos_of_task_[task] == n,
                   "PartialSchedule: order is not a permutation of the batch");
      pos_of_task_[task] = pos;
    }
    const Task& t = tasks[task];
    RTDS_REQUIRE(t.workers_required >= 1,
                 "PartialSchedule: workers_required must be >= 1");
    p_us_[pos] = t.processing.us;
    es_us_[pos] = t.earliest_start > delivery_time_
                      ? (t.earliest_start - delivery_time_).us
                      : 0;
    d_us_[pos] = (t.deadline - delivery_time_).us;
    aff_bits_[pos] = t.affinity.raw();
    width_[pos] = t.workers_required;
    has_gangs_ = has_gangs_ || t.workers_required > 1;
  }

  unassigned_.assign(words, ~std::uint64_t{0});
  if (n % 64 != 0) unassigned_.back() = (std::uint64_t{1} << (n % 64)) - 1;
}

std::uint32_t PartialSchedule::first_unassigned_at_or_after(
    std::uint32_t pos) const {
  const std::uint32_t n = n_;
  if (pos >= n) return n;
  std::size_t word = pos >> 6;
  // Mask off positions below `pos` in the first word.
  std::uint64_t bits = unassigned_[word] & (~std::uint64_t{0} << (pos & 63));
  while (bits == 0) {
    if (++word == unassigned_.size()) return n;
    bits = unassigned_[word];
  }
  return static_cast<std::uint32_t>((word << 6) +
                                    std::uint32_t(std::countr_zero(bits)));
}

std::uint64_t PartialSchedule::feasible_word_mask(ProcessorId worker,
                                                  std::size_t word) const {
  RTDS_ASSERT(tasks_mask_eligible());
  const std::size_t base = word << 6;
#ifndef RTDS_DISABLE_ASSERTS
  for (std::uint64_t bits = unassigned_[word]; bits != 0; bits &= bits - 1) {
    // evaluate_fast would REQUIRE on an empty affinity (no data holder);
    // the mask path must not silently compute past that caller bug.
    RTDS_ASSERT(aff_bits_[base + std::size_t(std::countr_zero(bits))] != 0);
  }
#endif
  return simd::feasible_word_mask(ce_us_[worker], worker, p_us_.data() + base,
                                  es_us_.data() + base, d_us_.data() + base,
                                  aff_bits_.data() + base, comm_us_);
}

std::optional<Assignment> PartialSchedule::evaluate(
    std::uint32_t task_index, ProcessorId worker) const {
  RTDS_REQUIRE(task_index < n_, "evaluate: bad task index");
  RTDS_REQUIRE(worker < net_->num_workers(), "evaluate: bad worker id");
  RTDS_REQUIRE(!assigned(task_index), "evaluate: task already assigned");

  Assignment a;
  if (!evaluate_fast(task_index, worker, a)) return std::nullopt;
  return a;
}

bool PartialSchedule::evaluate_fast_at(std::uint32_t pos, ProcessorId worker,
                                       Assignment& out) const {
  std::int64_t comm_us;
  if ((aff_bits_[pos] >> worker) & 1u) {
    comm_us = 0;
  } else if (cut_through_) {
    // Same contract as Interconnect::comm_cost: a task with no data holder
    // anywhere is a caller bug.
    RTDS_REQUIRE(aff_bits_[pos] != 0,
                 "comm_cost: task has no data holder");
    comm_us = comm_us_;
  } else {
    comm_us = net_->comm_cost((*batch_)[task_at(pos)].affinity, worker).us;
  }

  const std::int64_t prev_ce_us = ce_us_[worker];
  // A k-worker gang claims the contiguous block [worker, worker+k): it can
  // start only once EVERY block member's queue has drained, and a block
  // running past worker m-1 is no placement at all. k == 1 (the common
  // case) skips the block scan entirely.
  std::int64_t block_ce_us = prev_ce_us;
  const std::uint32_t width = width_[pos];
  if (width > 1) {
    if (std::size_t{worker} + width > ce_us_.size()) return false;
    for (std::uint32_t j = 1; j < width; ++j) {
      block_ce_us = std::max(block_ce_us, ce_us_[worker + j]);
    }
  }
  // Execution cannot start before the task's start-time constraint; the
  // worker idles until then (footnote 1 task model).
  const std::int64_t es_us = es_us_[pos];
  const std::int64_t start_us = block_ce_us > es_us ? block_ce_us : es_us;
  const std::int64_t end_us = start_us + p_us_[pos] + comm_us;

  // Fig. 4: t_c + RQ_s(j) + se_lk <= d_l, with t_c + RQ_s == delivery_time.
  if (end_us > d_us_[pos]) return false;

  out.task_index = task_at(pos);
  out.worker = worker;
  out.exec_cost = SimDuration{p_us_[pos] + comm_us};
  out.prev_ce = SimDuration{prev_ce_us};
  out.prev_max_ce = SimDuration{max_ce_us_};
  out.start_offset = SimDuration{start_us};
  out.end_offset = SimDuration{end_us};
  return true;
}

void PartialSchedule::push(const Assignment& a) {
  RTDS_ASSERT(!assigned(a.task_index));
  const std::uint32_t pos = pos_of(a.task_index);
  RTDS_ASSERT(std::size_t{a.worker} + width_[pos] <= ce_us_.size());
  // Integrity: the assignment must have been evaluated at this exact state.
  RTDS_ASSERT(ce_us_[a.worker] == a.prev_ce.us);
  RTDS_ASSERT(max_ce_us_ == a.prev_max_ce.us);
  unassigned_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
  // A gang charges its whole worker block to the same end offset; the
  // siblings' pre-push offsets go on the side undo stack (the lead's is
  // Assignment::prev_ce).
  const std::uint32_t k = width_[pos];
  for (std::uint32_t j = 1; j < k; ++j) {
    gang_undo_.push_back(SimDuration{ce_us_[a.worker + j]});
    ce_us_[a.worker + j] = a.end_offset.us;
  }
  ce_us_[a.worker] = a.end_offset.us;
  max_ce_us_ = std::max(max_ce_us_, a.end_offset.us);
  path_.push_back(a);
}

void PartialSchedule::pop() {
  RTDS_REQUIRE(!path_.empty(), "pop: empty path");
  const Assignment& a = path_.back();
  const std::uint32_t pos = pos_of(a.task_index);
  unassigned_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
  const std::uint32_t k = width_[pos];
  for (std::uint32_t j = k; j-- > 1;) {
    ce_us_[a.worker + j] = gang_undo_.back().us;
    gang_undo_.pop_back();
  }
  ce_us_[a.worker] = a.prev_ce.us;
  // LIFO discipline means the pre-push CE recorded on the assignment is
  // exactly the post-pop CE — no rescan needed.
  max_ce_us_ = a.prev_max_ce.us;
  path_.pop_back();
}

std::size_t PartialSchedule::footprint_bytes() const {
  const auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return vec_bytes(ce_us_) + vec_bytes(p_us_) + vec_bytes(es_us_) +
         vec_bytes(d_us_) + vec_bytes(aff_bits_) + vec_bytes(width_) +
         vec_bytes(unassigned_) + vec_bytes(pos_of_task_) + vec_bytes(path_) +
         vec_bytes(gang_undo_);
}

}  // namespace rtds::search
