// Partial schedules and the predictive feasibility test (Sec. 3, 4.1, 4.3).
//
// A partial schedule CPS is a path from the root of the task-space tree G:
// an ordered list of task-to-processor assignments. This class maintains the
// incremental state the search needs at the current vertex:
//   * ce_k — the completion offset of each worker's queue, measured from the
//     moment the schedule will be delivered (Sec. 4.4):
//       ce_k = max(0, Load_k(j-1) - Q_s(j)) + Σ (p_l + c_lk)
//   * the set of tasks already assigned on this path;
//   * CE = max_k ce_k, the load-balancing cost function.
//
// The feasibility test (Fig. 4) for adding (T_l -> P_k):
//     t_c + RQ_s(j) + se_lk <= d_l
// Because t_c + RQ_s(j) == t_s + Q_s(j) — the planned delivery time of the
// schedule — the test reduces to  delivery_time + se_lk <= d_l, where se_lk
// is T_l's end offset in P_k's queue. This is exactly the bound used in the
// paper's correction theorem, and it is what makes scheduled tasks immune to
// scheduling overhead: the whole quantum is charged up front.
//
// Hot-path layout (see docs/ARCHITECTURE.md "Search hot path"): the search
// charges its entire vertex budget through evaluate/push/pop, so this class
// keeps flat structure-of-arrays state and touches nothing else:
//   * p_us_/es_us_/d_us_/aff_bits_/width_ — the per-task constants, one
//     contiguous array per field in raw delivery-relative microseconds,
//     stored by *consideration-order position* (slot pos holds the task at
//     order[pos]), so evaluation never dereferences the 56-byte Task and the
//     search/simd.h word kernel reads 64 positions as plain loads. The
//     arrays are padded to whole bitset words; padding and stale lanes are
//     never written, since the unassigned mask discards their verdicts;
//   * ce_us_ — per-worker completion offsets (m contiguous 8-byte counts,
//     the vector operand of the Fig. 4 worker-mask kernel);
//   * unassigned_ — a 64-bit-word bitset over consideration-order positions
//     (bit set = still unassigned), giving O(n/64) find-first scans instead
//     of a std::vector<bool> walk, and selecting the live lanes of the word
//     kernel.
// The object is built to be reused: reset() refills it for the next phase
// in one pass over the batch, reusing every buffer it already holds, so a
// long-lived schedule (the search engine keeps one per thread) allocates
// only when a batch outgrows all earlier ones.
// Backtracking is O(1): every Assignment carries the undo values prev_ce and
// prev_max_ce, so pop() restores both the worker's queue and CE without the
// historical O(m) rescan.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.h"
#include "machine/interconnect.h"
#include "search/simd.h"
#include "tasks/task.h"

namespace rtds::search {

using tasks::ProcessorId;
using tasks::Task;

/// One task-to-processor assignment (a vertex of G).
struct Assignment {
  std::uint32_t task_index{0};  ///< index into the phase's batch snapshot
  ProcessorId worker{0};
  SimDuration exec_cost{SimDuration::zero()};  ///< p_l + c_lk
  /// Queue offset of the worker when this assignment was evaluated — the
  /// undo value for backtracking (start-time constraints can insert idle
  /// gaps, so popping cannot simply subtract exec_cost).
  SimDuration prev_ce{SimDuration::zero()};
  /// CE of the whole partial schedule when this assignment was evaluated —
  /// the undo value that makes pop() O(1) instead of an O(m) rescan.
  /// Valid because push/pop are strictly LIFO: the state after popping this
  /// assignment is exactly the state in which it was evaluated.
  SimDuration prev_max_ce{SimDuration::zero()};
  SimDuration start_offset{SimDuration::zero()};  ///< from delivery time
  SimDuration end_offset{SimDuration::zero()};    ///< se_lk, from delivery
};

/// Mutable path state for depth-first search with backtracking.
class PartialSchedule {
 public:
  /// Per-task constants in raw microseconds relative to the delivery time.
  /// Storage is one array per field (see header comment); this struct is the
  /// assembled by-value view for cold-path callers (portfolio heuristics,
  /// tests).
  struct TaskConstants {
    std::int64_t processing_us{0};  ///< p_l
    std::int64_t es_off_us{0};      ///< max(0, earliest_start - delivery)
    std::int64_t d_off_us{0};       ///< deadline - delivery (may be < 0)
    std::uint64_t affinity_bits{0};  ///< AffinitySet::raw()
    /// Gang width k: the job occupies the contiguous worker block
    /// [worker, worker+k). k == 1 is the sequential task model.
    std::uint32_t workers_required{1};
  };

  /// An empty schedule holding no batch; reset() before any other use.
  PartialSchedule() = default;

  /// Equivalent to a default-constructed schedule reset() with the identity
  /// consideration order.
  PartialSchedule(const std::vector<Task>* batch,
                  const std::vector<SimDuration>& base_loads,
                  SimTime delivery_time, const machine::Interconnect* net);

  /// Re-targets this schedule at a new phase: an empty path over `batch`,
  /// reusing the storage it already holds. `batch` must outlive every later
  /// use and must not be mutated meanwhile: task parameters are snapshotted
  /// into the per-task constants here (delivery-relative offsets can only be
  /// precomputed once). `base_loads[k]` is the worker's residual load at
  /// delivery time: max(0, Load_k(j-1) - Q_s(j)). `delivery_time` is
  /// t_s + Q_s(j), the time the schedule will reach the ready queues. `net`
  /// prices c_lk. `order` is the consideration order the search iterates
  /// tasks in — a permutation of [0, batch_size) that outlives every later
  /// use — or nullptr for the identity order (the kBatchOrder fast path: no
  /// index vector at all). Positions, not task indices, key the unassigned
  /// bitset and the SoA constants, so find-first scans return positions in
  /// heuristic order.
  void reset(const std::vector<Task>* batch,
             const std::vector<SimDuration>& base_loads,
             SimTime delivery_time, const machine::Interconnect* net,
             const std::uint32_t* order);

  /// Re-declares the consideration order of the current batch (same
  /// contract as reset()'s `order`). Must be called before the first push.
  void set_consideration_order(const std::uint32_t* order);

  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(path_.size());
  }
  [[nodiscard]] std::uint32_t batch_size() const { return n_; }
  [[nodiscard]] bool complete() const { return depth() == n_; }
  [[nodiscard]] bool assigned(std::uint32_t task_index) const {
    const std::uint32_t pos = pos_of(task_index);
    return ((unassigned_[pos >> 6] >> (pos & 63)) & 1u) == 0;
  }
  [[nodiscard]] SimTime delivery_time() const { return delivery_time_; }

  /// First consideration-order position >= `pos` holding an unassigned
  /// task, or batch_size() when none. O(n/64) word scan.
  [[nodiscard]] std::uint32_t first_unassigned_at_or_after(
      std::uint32_t pos) const;

  /// Task index at consideration-order position `pos`.
  [[nodiscard]] std::uint32_t task_at(std::uint32_t pos) const {
    return order_ == nullptr ? pos : order_[pos];
  }

  /// Raw unassigned bitset (bit = consideration-order position), for
  /// zero-overhead iteration in the sequence-oriented expansion loop.
  [[nodiscard]] const std::vector<std::uint64_t>& unassigned_words() const {
    return unassigned_;
  }

  /// Completion offset of worker k's queue (from delivery time).
  [[nodiscard]] SimDuration ce(ProcessorId k) const {
    return SimDuration{ce_us_[k]};
  }

  /// The full per-worker completion-offset vector in raw microseconds —
  /// the streaming operand of the simd worker-mask kernel.
  [[nodiscard]] const std::int64_t* ce_data() const { return ce_us_.data(); }

  /// CE — the load-balancing cost of this partial schedule (Sec. 4.4):
  /// the maximum completion offset over all workers.
  [[nodiscard]] SimDuration max_ce() const { return SimDuration{max_ce_us_}; }

  /// Minimum completion offset over all workers — the lower bound used by
  /// the engine's bulk infeasibility test. O(m/lanes) via simd::min_i64.
  [[nodiscard]] SimDuration min_ce() const {
    return SimDuration{simd::min_i64(
        ce_us_.data(), static_cast<std::uint32_t>(ce_us_.size()))};
  }

  /// Lower-bound infeasibility test over ALL workers at once for the task
  /// at position `pos`: end offsets are >= max(min_ce, es_off) + p
  /// (communication cost is non-negative), so when that bound already
  /// misses the deadline every one of the m placements is infeasible and
  /// the engine can charge the budget without evaluating each. `min_ce`
  /// must be this schedule's current min_ce(). Sound for gangs too: a
  /// gang's start is the max completion offset over its worker block, which
  /// is >= min_ce, and the structurally invalid leads (block past worker m)
  /// are infeasible by definition.
  [[nodiscard]] bool unplaceable_at(std::uint32_t pos,
                                    SimDuration min_ce) const {
    const std::int64_t es = es_us_[pos];
    const std::int64_t start = min_ce.us > es ? min_ce.us : es;
    return start + p_us_[pos] > d_us_[pos];
  }

  /// Assembled per-task constants (by value — storage is SoA).
  [[nodiscard]] TaskConstants constants(std::uint32_t task_index) const {
    const std::uint32_t pos = pos_of(task_index);
    return TaskConstants{p_us_[pos], es_us_[pos], d_us_[pos], aff_bits_[pos],
                         width_[pos]};
  }

  // -- simd batch evaluation (search/simd.h) ---------------------------------
  // Both mask kernels compute EXACTLY the per-lane verdicts evaluate_fast
  // would return, under preconditions the engine checks before taking the
  // batched path; outside them it falls back to the scalar loop, so results
  // stay bit-identical either way.

  /// True when feasible_workers_mask_at(pos) is exact for the task at `pos`:
  /// constant cut-through communication (no per-worker comm_cost calls),
  /// width 1 (no block scan), and a non-empty affinity (evaluate_fast would
  /// REQUIRE on an empty one — the mask path must not mask that bug).
  [[nodiscard]] bool workers_mask_eligible_at(std::uint32_t pos) const {
    return cut_through_ && width_[pos] == 1 && aff_bits_[pos] != 0;
  }
  [[nodiscard]] bool workers_mask_eligible(std::uint32_t task_index) const {
    return workers_mask_eligible_at(pos_of(task_index));
  }

  /// Bit k set iff evaluate_fast_at(pos, k) would be feasible, for every
  /// worker k at once. Precondition: workers_mask_eligible_at(pos).
  [[nodiscard]] std::uint64_t feasible_workers_mask_at(
      std::uint32_t pos) const {
    return simd::feasible_workers_mask(
        ce_us_.data(), static_cast<std::uint32_t>(ce_us_.size()), p_us_[pos],
        es_us_[pos], d_us_[pos], comm_us_, aff_bits_[pos]);
  }
  [[nodiscard]] std::uint64_t feasible_workers_mask(
      std::uint32_t task_index) const {
    return feasible_workers_mask_at(pos_of(task_index));
  }

  /// True when feasible_word_mask is exact for this whole batch: constant
  /// cut-through communication and no gangs anywhere (the word lanes come
  /// off the unassigned bitset, which doesn't know widths). Individual
  /// tasks must additionally have non-empty affinities — guaranteed by the
  /// workload layer and asserted in debug builds.
  [[nodiscard]] bool tasks_mask_eligible() const {
    return cut_through_ && !has_gangs_;
  }

  /// Bit j set iff evaluate_fast_at(64 * word + j, worker) would be
  /// feasible, for every position j of bitset word `word`. Only the bits
  /// of unassigned positions mean anything: callers AND the result with
  /// unassigned_words()[word]. Precondition: tasks_mask_eligible().
  [[nodiscard]] std::uint64_t feasible_word_mask(ProcessorId worker,
                                                 std::size_t word) const;

  /// Evaluates the candidate vertex (T_l -> P_k): computes cost and end
  /// offset, and applies the feasibility test of Fig. 4. Returns nullopt
  /// when infeasible. Does not modify the schedule.
  [[nodiscard]] std::optional<Assignment> evaluate(
      std::uint32_t task_index, ProcessorId worker) const;

  /// Precondition-free evaluation core for the search hot loop: same
  /// arithmetic and feasibility test as evaluate(), for the task at
  /// consideration-order position `pos`, but writes into `out` (no
  /// optional) and validates nothing beyond debug assertions. Returns true
  /// when feasible. Callers must guarantee pos/worker are in range and the
  /// task is unassigned.
  bool evaluate_fast_at(std::uint32_t pos, ProcessorId worker,
                        Assignment& out) const;
  /// evaluate_fast_at() addressed by task index.
  bool evaluate_fast(std::uint32_t task_index, ProcessorId worker,
                     Assignment& out) const {
    return evaluate_fast_at(pos_of(task_index), worker, out);
  }

  /// Extends the path by `a` (which must have come from evaluate() at the
  /// current state).
  void push(const Assignment& a);

  /// Undoes the most recent assignment (backtracking). O(1) for sequential
  /// tasks (restores the worker's queue offset and CE from the assignment's
  /// undo fields); O(k) for a k-worker gang, whose sibling offsets are
  /// restored from the side undo stack push() recorded.
  void pop();

  /// Assignments along the current path, in path order.
  [[nodiscard]] const std::vector<Assignment>& path() const { return path_; }

  /// Bytes of heap storage this schedule holds (SoA constants, bitset,
  /// path), counted by capacity — for the bench memory column.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  [[nodiscard]] std::uint32_t pos_of(std::uint32_t task_index) const {
    return order_ == nullptr ? task_index : pos_of_task_[task_index];
  }
  /// The one fill of the per-task state: SoA constants, pos_of_task_ and
  /// the unassigned bitset for the current batch under `order`.
  void fill(const std::uint32_t* order);

  const std::vector<Task>* batch_{nullptr};
  const machine::Interconnect* net_{nullptr};
  SimTime delivery_time_{SimTime::zero()};
  std::uint32_t n_{0};
  /// Per-worker completion offsets in raw microseconds (SoA hot vector).
  std::vector<std::int64_t> ce_us_;
  std::int64_t max_ce_us_{0};
  // Per-task constants by consideration-order position, one contiguous
  // array per field (SoA), padded to whole bitset words.
  std::vector<std::int64_t> p_us_;
  std::vector<std::int64_t> es_us_;
  std::vector<std::int64_t> d_us_;
  std::vector<std::uint64_t> aff_bits_;
  std::vector<std::uint32_t> width_;
  bool has_gangs_{false};
  bool cut_through_{true};
  std::int64_t comm_us_{0};  ///< constant C (cut-through model only)
  /// Bit (per consideration-order position) set while unassigned.
  std::vector<std::uint64_t> unassigned_;
  const std::uint32_t* order_{nullptr};     ///< nullptr = identity
  std::vector<std::uint32_t> pos_of_task_;  ///< unused under identity
  std::vector<Assignment> path_;
  /// Sibling undo values for gang assignments: push() of a k-worker gang
  /// appends the k-1 pre-push completion offsets of workers
  /// [worker+1, worker+k) (the lead's lives in Assignment::prev_ce), and
  /// pop() restores them. Valid because push/pop are strictly LIFO.
  std::vector<SimDuration> gang_undo_;
};

}  // namespace rtds::search
