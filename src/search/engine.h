// The scheduling-as-search engine (Sec. 3 and 4.1).
//
// Schedule construction is an incremental depth-first search in the
// task-space tree G. Vertices are task-to-processor assignments; a path from
// the root is a feasible partial schedule. The engine maintains:
//   * an arena of generated vertices (parent links give paths);
//   * the candidate list CL: feasible successors are sorted by
//     heuristic/cost value and added to the FRONT of CL; each iteration
//     removes the first vertex of CL and expands it (LIFO => depth-first,
//     with sorted-group insertion exactly as described in Sec. 4.1);
//   * the current partial schedule, kept in sync with the vertex being
//     expanded via lowest-common-ancestor path switching (backtracking).
//
// The two search representations of Sec. 3:
//   * assignment-oriented (Fig. 2, used by RT-SADS): each level selects the
//     next TASK (by the task-order heuristic) and branches over all m
//     processors;
//   * sequence-oriented (Fig. 1, used by D-COLS): each level selects the
//     next PROCESSOR round-robin and branches over all unassigned tasks.
//
// Every *generated* vertex — feasible or not — consumes one unit of the
// phase's vertex budget, because generation includes evaluation and the
// feasibility test (Sec. 4.1). The budget is Q_s(j) divided by the
// per-vertex scheduling cost, which is how scheduling overhead is charged
// on the simulated clock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "machine/interconnect.h"
#include "search/partial_schedule.h"
#include "tasks/task.h"

namespace rtds::search {

/// Which search representation to use (Sec. 3).
enum class Representation {
  kAssignmentOriented,  ///< Fig. 2 — RT-SADS
  kSequenceOriented,    ///< Fig. 1 — D-COLS
};

/// How the candidate list is consumed. The paper's algorithms are
/// depth-first (sorted successors are added to the FRONT of CL); the
/// best-first alternative always expands the globally cheapest candidate.
/// Because the load-balancing cost CE only grows with depth, best-first
/// degenerates toward breadth-first under a vertex budget — the ablation
/// ABL-STRAT quantifies why the paper is right to dive.
enum class SearchStrategy {
  kDepthFirst,
  kBestFirst,
};

/// Order in which tasks are considered (the task-selection heuristic).
enum class TaskOrder {
  kBatchOrder,        ///< arrival/merge order, no heuristic
  kEarliestDeadline,  ///< EDF — the classic real-time heuristic
  kMinSlack,          ///< least-laxity (d - p)
};

/// How the sequence-oriented representation picks the processor for each
/// level. The paper shows round-robin in Fig. 1 but notes "a heuristic
/// function can be applied to affect this order".
enum class LevelProcessorOrder {
  kRoundRobin,   ///< P_(depth mod m), Fig. 1
  kLeastLoaded,  ///< smallest current ce_k first — a load-aware D-COLS
};

/// Order in which processors are considered for one task
/// (assignment-oriented successor sorting, when the load-balancing cost
/// function is disabled).
enum class ProcessorOrder {
  kIndexOrder,    ///< P_0, P_1, ... — no heuristic
  kMinEndOffset,  ///< earliest completion of the task (greedy)
  kMinCommCost,   ///< affine processors first, then earliest completion
};

/// Engine configuration. Defaults correspond to RT-SADS as evaluated in the
/// paper: assignment-oriented, EDF task order, load-balancing cost function
/// enabled.
struct SearchConfig {
  Representation representation{Representation::kAssignmentOriented};
  SearchStrategy strategy{SearchStrategy::kDepthFirst};
  TaskOrder task_order{TaskOrder::kEarliestDeadline};
  ProcessorOrder processor_order{ProcessorOrder::kMinEndOffset};

  /// When true, feasible successors are sorted by the resulting
  /// load-balancing cost CE (Sec. 4.4), tie-broken by end offset. When
  /// false, `processor_order` (assignment-oriented) or `task_order`
  /// (sequence-oriented) alone decides.
  bool use_load_balance_cost{true};

  /// Pruning heuristics the paper lists for dynamic algorithms (Sec. 3):
  /// a cap on successors generated per expansion (0 = unlimited) and a cap
  /// on search depth (0 = unlimited).
  std::uint32_t max_successors{0};
  std::uint32_t max_depth{0};

  /// Assignment-oriented only. When true (default), a task whose every
  /// processor placement is infeasible at the current vertex is skipped and
  /// the next task in heuristic order is selected instead of declaring the
  /// level a dead-end. Skipping is sound and cheap to inherit: queue
  /// offsets ce_k only grow along a path, so a task infeasible on every
  /// worker stays infeasible in the entire subtree and is never
  /// re-evaluated below the vertex that proved it (the generated vertices
  /// are still charged against the budget once). Without this, one stuck
  /// tight task would stall whole scheduling phases. Disable to get the
  /// strict reading of the paper's Sec. 3 expansion rule (ablation ABL-H).
  bool skip_unplaceable_tasks{true};

  /// Sequence-oriented only: the level's processor selection rule.
  LevelProcessorOrder level_processor_order{LevelProcessorOrder::kRoundRobin};

  /// Sequence-oriented only. When true (default), a level whose round-robin
  /// processor admits no feasible task advances to the next processor
  /// (trying at most m processors per level, all evaluations charged)
  /// instead of dead-ending the branch. The paper notes the processor order
  /// "can be affected by a heuristic function"; a continuous scheduler that
  /// dies forever once P_0 saturates would be a strawman comparator.
  /// Disable for the strict round-robin reading (ablation ABL-H).
  bool skip_saturated_processors{true};

  /// When true (default), the engine returns the deepest feasible path seen
  /// during the search; when false it returns the current path at
  /// termination (strict reading of the paper). Deeper = more tasks
  /// scheduled this phase.
  bool return_deepest{true};
};

/// Counters describing one search run.
struct SearchStats {
  std::uint64_t vertices_generated{0};
  std::uint64_t expansions{0};
  std::uint64_t backtracks{0};
  std::uint32_t max_depth{0};
  bool reached_leaf{false};
  bool dead_end{false};
  bool budget_exhausted{false};
};

/// Result of one scheduling-phase search: a feasible (partial or complete)
/// schedule plus statistics.
struct SearchResult {
  std::vector<Assignment> schedule;  ///< path order
  SearchStats stats;
};

/// Hard structural ceiling on one phase batch, checked with InvalidArgument
/// (it bounds the 32-bit depth/cursor fields of the wide node header; the
/// narrow 16-bit header is selected automatically below 65536 tasks —
/// docs/ARCHITECTURE.md, "Search hot path").
inline constexpr std::uint32_t kMaxBatchTasks = 1u << 30;

/// Bytes currently retained by the calling thread's search workspace (the
/// pooled narrow/wide node arenas plus candidate scratch). For the bench
/// memory column; cheap enough to call between runs.
[[nodiscard]] std::size_t thread_workspace_bytes();

/// High-water mark of thread_workspace_bytes() on the calling thread (the
/// pool trims itself after oversized runs, so the current value can
/// understate what a big batch actually used).
[[nodiscard]] std::size_t thread_workspace_peak_bytes();

/// Depth-first search over the task-space tree. Results depend only on the
/// run's arguments; one engine can be reused across phases. Between runs
/// the calling thread keeps the last consideration order, so a batch that
/// extends the previous one (see tasks/batch.h) only sorts its new tail.
class SearchEngine {
 public:
  explicit SearchEngine(SearchConfig config);

  [[nodiscard]] const SearchConfig& config() const { return config_; }

  /// Runs one scheduling phase's search.
  ///
  /// `batch`          — snapshot of Batch(j) (tasks to schedule); at most
  ///                    kMaxBatchTasks tasks (InvalidArgument beyond).
  ///                    Batches up to 65535 tasks use the packed 16-byte
  ///                    node header; larger ones promote to the wide
  ///                    header automatically;
  /// `base_loads`     — per-worker residual load at delivery time,
  ///                    max(0, Load_k(j-1) - Q_s(j));
  /// `delivery_time`  — t_s + Q_s(j);
  /// `net`            — interconnect pricing c_lk;
  /// `vertex_budget`  — maximum number of vertices to generate (>= 1).
  ///
  /// Thread-safe: per-thread scratch buffers are reused across calls (node
  /// arenas grow in pooled chunks and are retained between runs), so the
  /// search loop performs no steady-state heap allocation
  /// (docs/ARCHITECTURE.md, "Search hot path").
  [[nodiscard]] SearchResult run(const std::vector<Task>& batch,
                                 const std::vector<SimDuration>& base_loads,
                                 SimTime delivery_time,
                                 const machine::Interconnect& net,
                                 std::uint64_t vertex_budget) const;

 private:
  SearchConfig config_;
};

/// Precomputes the static task consideration order for a batch under the
/// given heuristic (deadlines and slacks do not change during a phase, so
/// the order is computed once). Exposed for tests.
std::vector<std::uint32_t> task_consideration_order(
    const std::vector<Task>& batch, TaskOrder order);

/// Allocation-reusing core of task_consideration_order: fills `out` with
/// the permutation (capacity retained across phases; the sort keys and its
/// scratch live in the calling thread's search workspace, so a warm call
/// allocates nothing). kBatchOrder yields the identity permutation; the
/// engine skips the vector entirely in that case and callers that only
/// need identity semantics may do the same.
void task_consideration_order_into(const std::vector<Task>& batch,
                                   TaskOrder order,
                                   std::vector<std::uint32_t>& out);

}  // namespace rtds::search
