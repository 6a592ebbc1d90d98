#include "search/engine.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "search/expand_core.h"

namespace rtds::search {

namespace {

using detail::Candidate;

/// A generated vertex kept in the search arena, narrow header: depth and
/// cursor pack into 16 bits each, so a node is 56 bytes with the embedded
/// assignment. Selected for batches up to 65535 tasks — every realistic
/// phase batch, and the layout the PR-4 throughput numbers were taken on.
struct NodeNarrow {
  using DepthType = std::uint16_t;
  /// Largest batch this header can index (depth/cursor saturate at 16 bits).
  static constexpr std::uint32_t kMaxTasks = 65535;
  std::int32_t parent{-1};  ///< arena index, or -1 for children of the root
  std::uint16_t depth{0};   ///< number of assignments on the path to here
  /// Assignment-oriented task-scan resume point: tasks before this position
  /// in the consideration order are either assigned on this path or were
  /// proven unplaceable at an ancestor (and stay so, since queue offsets
  /// only grow along a path).
  std::uint16_t order_cursor{0};
  Assignment assignment;
};

/// Wide header for batches above 65535 tasks: depth and cursor widen to 32
/// bits (64-byte node — exactly one cache line). Same semantics as
/// NodeNarrow; the engine body is templated over the two.
struct NodeWide {
  using DepthType = std::uint32_t;
  std::int32_t parent{-1};
  std::uint32_t depth{0};
  std::uint32_t order_cursor{0};
  Assignment assignment;
};

static_assert(sizeof(NodeNarrow) <= 56);
static_assert(sizeof(NodeWide) <= 64);

/// Pool bound retained between runs per node arena and for the workspace's
/// partial schedule: a million-task run can legitimately grow the arena to
/// hundreds of MB (and the schedule to tens), which must not stay captive
/// on a long-lived backend thread once the phase is over.
constexpr std::size_t kArenaRetainBytes = std::size_t{64} << 20;

/// Growable pooled node arena: fixed-size chunks, never a realloc-copy, so
/// Assignment pointers into it stay stable while it grows and clear()
/// retains the chunks for the next run (steady-state allocation-free).
template <typename NodeT>
class NodeArena {
 public:
  static constexpr std::uint32_t kChunkShift = 14;  // 16384 nodes per chunk
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

  [[nodiscard]] std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

  NodeT& emplace_back() {
    // Arena indices travel as int32 (node ids, CL entries).
    RTDS_REQUIRE(size_ < (std::size_t{1} << 31),
                 "SearchEngine: node arena above 2^31 nodes");
    const std::size_t c = size_ >> kChunkShift;
    if (c == chunks_.size()) {
      chunks_.push_back(std::make_unique<NodeT[]>(kChunkNodes));
    }
    return chunks_[c][size_++ & (kChunkNodes - 1)];
  }

  [[nodiscard]] NodeT& operator[](std::size_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkNodes - 1)];
  }
  [[nodiscard]] const NodeT& operator[](std::size_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkNodes - 1)];
  }

  [[nodiscard]] std::size_t capacity_bytes() const {
    return chunks_.size() * (std::size_t{kChunkNodes} * sizeof(NodeT));
  }

  /// Drops pooled chunks until at most `max_bytes` stay resident. Only
  /// valid between runs (live node indices become dangling).
  void trim(std::size_t max_bytes) {
    size_ = 0;
    while (!chunks_.empty() && capacity_bytes() > max_bytes) {
      chunks_.pop_back();
    }
  }

 private:
  std::vector<std::unique_ptr<NodeT[]>> chunks_;
  std::size_t size_{0};
};

/// The candidate list CL over caller-owned storage. Depth-first consumes it
/// as a stack (successor groups are pushed best-on-top, Sec. 4.1);
/// best-first is a 4-ary min-heap on (k1, k2, k3, seq) — seq makes the
/// order strictly total, so the pop sequence is independent of heap shape
/// and identical to the historical std::push_heap/pop_heap binary heap
/// (FIFO among key-equal entries).
class CandidateList {
 public:
  struct Entry {
    std::int64_t k1;
    std::int64_t k2;
    std::uint32_t k3;
    std::uint64_t seq;
    std::int32_t node;
  };

  CandidateList(SearchStrategy strategy, std::vector<Entry>& storage)
      : strategy_(strategy), entries_(storage) {
    entries_.clear();
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Depth-first callers must push a successor group in reverse priority
  /// order (worst first) so the best ends on top.
  void push(const Candidate& c, std::int32_t node) {
    entries_.push_back(Entry{c.key1, c.key2, c.key3, seq_++, node});
    if (strategy_ == SearchStrategy::kBestFirst) sift_up(entries_.size() - 1);
  }

  std::int32_t pop() {
    RTDS_ASSERT(!entries_.empty());
    if (strategy_ != SearchStrategy::kBestFirst) {
      const std::int32_t node = entries_.back().node;
      entries_.pop_back();
      return node;
    }
    const std::int32_t node = entries_.front().node;
    entries_.front() = entries_.back();
    entries_.pop_back();
    if (!entries_.empty()) sift_down(0);
    return node;
  }

 private:
  static bool less(const Entry& a, const Entry& b) {
    return std::tie(a.k1, a.k2, a.k3, a.seq) <
           std::tie(b.k1, b.k2, b.k3, b.seq);
  }

  void sift_up(std::size_t i) {
    Entry e = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!less(e, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = e;
  }

  void sift_down(std::size_t i) {
    const std::size_t size = entries_.size();
    Entry e = entries_[i];
    while (true) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= size) break;
      const std::size_t last_child = std::min(first_child + 4, size);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (less(entries_[c], entries_[best])) best = c;
      }
      if (!less(entries_[best], e)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = e;
  }

  SearchStrategy strategy_;
  std::uint64_t seq_{0};
  std::vector<Entry>& entries_;
};

/// Per-thread scratch buffers reused across run() calls so the hot loop is
/// allocation-free after the first few phases (capacity is retained by
/// clear(); arenas pool their chunks and self-trim to kArenaRetainBytes).
/// thread_local keeps the engine safely shareable across backend threads.
struct Workspace {
  /// Consideration order of the previous heuristic-ordered run, carried
  /// into the next one together with the ids and order keys, by batch
  /// position, of the batch it sorted.
  std::vector<std::uint32_t> order;
  std::vector<tasks::TaskId> ids;
  std::vector<std::int64_t> keys;
  // Scratch for deriving the next order: the new batch's ids/keys (swapped
  // in afterwards), old position -> new position, and survivors + tail.
  // task_consideration_order_into() borrows next_keys and remap as well.
  std::vector<tasks::TaskId> next_ids;
  std::vector<std::int64_t> next_keys;
  std::vector<std::uint32_t> remap;
  std::vector<std::uint32_t> merge_input;
  NodeArena<NodeNarrow> narrow;
  NodeArena<NodeWide> wide;
  std::vector<Candidate> candidates;
  std::vector<CandidateList::Entry> cl_entries;
  std::vector<tasks::ProcessorId> level_order;
  std::vector<const Assignment*> chain;
  /// The search's partial schedule, reset() at the start of every run so
  /// its SoA constants, bitset and path keep their storage across phases.
  PartialSchedule schedule;
  std::size_t peak_bytes{0};
};

Workspace& workspace() {
  static thread_local Workspace ws;
  return ws;
}

std::size_t workspace_bytes(const Workspace& ws) {
  return ws.narrow.capacity_bytes() + ws.wide.capacity_bytes() +
         ws.candidates.capacity() * sizeof(Candidate) +
         ws.cl_entries.capacity() * sizeof(CandidateList::Entry) +
         (ws.order.capacity() + ws.remap.capacity() +
          ws.merge_input.capacity()) *
             sizeof(std::uint32_t) +
         (ws.ids.capacity() + ws.next_ids.capacity()) *
             sizeof(tasks::TaskId) +
         (ws.keys.capacity() + ws.next_keys.capacity()) *
             sizeof(std::int64_t) +
         ws.schedule.footprint_bytes();
}

/// Fills the consideration-order key of every task, by batch position: the
/// order is ascending (key, position), i.e. exactly std::stable_sort's
/// permutation by key. Slack ordering (d - t - p) is time-independent
/// within a phase, so its key is d - p.
void fill_keys(const std::vector<Task>& batch, TaskOrder order,
               std::vector<std::int64_t>& keys) {
  keys.resize(batch.size());
  for (std::size_t pos = 0; pos < batch.size(); ++pos) {
    const Task& task = batch[pos];
    keys[pos] = order == TaskOrder::kMinSlack
                    ? (task.deadline - task.processing).us
                    : task.deadline.us;
  }
}

/// Sorts the ASCENDING batch positions [first, last) stably by keys[pos],
/// which is the strict (key, position) order: a total order on distinct
/// positions, so the permutation is std::stable_sort's. Short ranges (the
/// usual phase tail: a few arrivals) take an insertion sort; longer ones an
/// LSD radix sort on key - min key, one byte per pass through `scratch`
/// (room for last - first entries). Phase batches tie heavily on deadline,
/// where the radix passes' data-independent branches beat comparison sorts
/// several times over. Neither path allocates.
void sort_positions(std::uint32_t* first, std::uint32_t* last,
                    const std::int64_t* keys, std::uint32_t* scratch) {
  const auto n = static_cast<std::size_t>(last - first);
  if (n <= 48) {
    for (std::uint32_t* i = first + 1; i < last; ++i) {
      const std::uint32_t pos = *i;
      std::uint32_t* j = i;
      for (; j > first && keys[pos] < keys[*(j - 1)]; --j) *j = *(j - 1);
      *j = pos;
    }
    return;
  }
  std::int64_t lo = keys[*first];
  std::int64_t hi = lo;
  for (const std::uint32_t* i = first; i < last; ++i) {
    lo = std::min(lo, keys[*i]);
    hi = std::max(hi, keys[*i]);
  }
  const auto digits = [&](std::uint32_t pos) {
    return std::uint64_t(keys[pos]) - std::uint64_t(lo);
  };
  const std::uint64_t range = std::uint64_t(hi) - std::uint64_t(lo);
  std::uint32_t* src = first;
  std::uint32_t* dst = scratch;
  for (unsigned shift = 0; shift < 64 && (range >> shift) != 0; shift += 8) {
    std::array<std::uint32_t, 257> start{};
    for (std::size_t i = 0; i < n; ++i) {
      ++start[((digits(src[i]) >> shift) & 0xFF) + 1];
    }
    for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
    for (std::size_t i = 0; i < n; ++i) {
      dst[start[(digits(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != first) std::copy(src, src + n, first);
}

/// Fills ws.order with the consideration order of `batch`, derived from the
/// order carried over from the previous run (docs/ARCHITECTURE.md, "Search
/// hot path"). The new batch is matched against the carried one by a
/// forward-only walk: a task matches when its id and key equal those of a
/// later carried task than the previous match. The walk stops at the first
/// task it cannot match; from there on is the unsorted tail. Matched tasks
/// keep their key and their relative position, so filtering the carried
/// order to them and remapping their positions yields their sorted order;
/// merging it with the sorted tail (matched first on equal keys, since every
/// matched position precedes the tail) is std::stable_sort's permutation of
/// the whole batch. Only key equality and the kept positions matter, so this
/// holds for any input — an unrelated batch, or keys carried under the other
/// heuristic, merely shortens the matched part (at worst, the tail is all).
void carry_order(const std::vector<Task>& batch, TaskOrder kind,
                 Workspace& ws) {
  const auto n = static_cast<std::uint32_t>(batch.size());
  ws.next_ids.resize(n);
  for (std::uint32_t j = 0; j < n; ++j) ws.next_ids[j] = batch[j].id;
  fill_keys(batch, kind, ws.next_keys);

  constexpr std::uint32_t kGone = ~std::uint32_t{0};
  const auto old_n = static_cast<std::uint32_t>(ws.ids.size());
  ws.remap.assign(old_n, kGone);
  std::uint32_t matched = 0;
  for (std::uint32_t i = 0; matched < n; ++i, ++matched) {
    while (i < old_n && ws.ids[i] != ws.next_ids[matched]) ++i;
    if (i == old_n || ws.keys[i] != ws.next_keys[matched]) break;
    ws.remap[i] = matched;
  }

  // Survivors in carried order, then the tail, sorted in place (ws.order
  // is free as scratch once the survivors are out of it).
  ws.merge_input.clear();
  for (const std::uint32_t old_pos : ws.order) {
    const std::uint32_t pos = ws.remap[old_pos];
    if (pos != kGone) ws.merge_input.push_back(pos);
  }
  for (std::uint32_t pos = matched; pos < n; ++pos) {
    ws.merge_input.push_back(pos);
  }
  ws.order.resize(n);
  const std::int64_t* keys = ws.next_keys.data();
  std::uint32_t* const survivors = ws.merge_input.data();
  std::uint32_t* const tail = survivors + matched;
  sort_positions(tail, survivors + n, keys, ws.order.data());

  std::merge(survivors, tail, tail, survivors + n, ws.order.data(),
             [keys](std::uint32_t a, std::uint32_t b) {
               return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
             });
  ws.ids.swap(ws.next_ids);
  ws.keys.swap(ws.next_keys);
}

template <typename NodeT>
SearchResult run_impl(const SearchConfig& config,
                      const std::vector<Task>& batch,
                      const std::vector<SimDuration>& base_loads,
                      SimTime delivery_time, const machine::Interconnect& net,
                      std::uint64_t vertex_budget, Workspace& ws,
                      NodeArena<NodeT>& arena) {
  SearchResult result;
  const std::uint32_t m = net.num_workers();

  // kBatchOrder is the identity permutation: skip building (and chasing)
  // the index vector entirely, and leave the carried order for the next
  // heuristic-ordered run.
  const std::uint32_t* order = nullptr;
  if (config.task_order != TaskOrder::kBatchOrder) {
    carry_order(batch, config.task_order, ws);
    order = ws.order.data();
  }

  PartialSchedule& ps = ws.schedule;
  ps.reset(&batch, base_loads, delivery_time, &net, order);

  arena.clear();
  CandidateList cl(config.strategy, ws.cl_entries);

  SearchStats& stats = result.stats;
  std::uint64_t budget_left = vertex_budget;

  std::int32_t current = -1;  // arena index of the vertex CPS ends at
  std::int32_t best_node = -1;
  std::uint32_t best_depth = 0;
  SimDuration best_ce = SimDuration::max();

  const auto node_depth = [&](std::int32_t id) -> std::uint32_t {
    return id < 0 ? 0u : arena[std::size_t(id)].depth;
  };

  // Expands the current vertex (shared core, search/expand_core.h): charges
  // the budget, collects sorted feasible successors, then registers them in
  // the arena and pushes them onto CL best-on-top.
  std::vector<Candidate>& candidates = ws.candidates;
  const auto expand_current = [&](std::uint32_t cursor) {
    cursor = detail::expand_vertex(config, ps, batch, m, cursor, budget_left,
                                   stats, candidates, ws.level_order);
    // Push worst-first so the best candidate ends on top of the stack
    // (front of CL).
    const auto depth = static_cast<typename NodeT::DepthType>(ps.depth() + 1);
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      NodeT& node = arena.emplace_back();
      node.parent = current;
      node.depth = depth;
      node.order_cursor = static_cast<typename NodeT::DepthType>(cursor);
      node.assignment = it->assignment;
      cl.push(*it, static_cast<std::int32_t>(arena.size() - 1));
    }
  };

  // Switches CPS from `current` to arena vertex `target` via their lowest
  // common ancestor.
  std::vector<const Assignment*>& chain = ws.chain;
  const auto switch_to = [&](std::int32_t target) {
    chain.clear();
    std::int32_t a = current;
    std::int32_t b = target;
    while (node_depth(b) > node_depth(a)) {
      chain.push_back(&arena[std::size_t(b)].assignment);
      b = arena[std::size_t(b)].parent;
    }
    while (node_depth(a) > node_depth(b)) {
      ps.pop();
      a = arena[std::size_t(a)].parent;
    }
    while (a != b) {
      ps.pop();
      a = arena[std::size_t(a)].parent;
      chain.push_back(&arena[std::size_t(b)].assignment);
      b = arena[std::size_t(b)].parent;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      ps.push(**it);
    }
    current = target;
  };

  while (true) {
    if (budget_left == 0) {
      stats.budget_exhausted = true;
      break;
    }
    expand_current(current < 0 ? 0u
                               : arena[std::size_t(current)].order_cursor);
    if (cl.empty()) {
      if (!ps.complete()) stats.dead_end = true;
      break;
    }
    const std::int32_t next = cl.pop();
    if (arena[std::size_t(next)].parent != current) ++stats.backtracks;
    switch_to(next);

    if (ps.depth() > stats.max_depth) stats.max_depth = ps.depth();
    const bool deeper = ps.depth() > best_depth;
    const bool same_depth_better =
        ps.depth() == best_depth && ps.max_ce() < best_ce;
    if (best_node == -1 || deeper || same_depth_better) {
      best_node = current;
      best_depth = ps.depth();
      best_ce = ps.max_ce();
    }

    if (ps.complete()) {
      stats.reached_leaf = true;
      break;
    }
  }

  // Choose the returned path: the deepest (then best-balanced) vertex seen,
  // or the vertex where the search stopped.
  const std::int32_t chosen = config.return_deepest ? best_node : current;
  std::vector<Assignment> out;
  for (std::int32_t v = chosen; v >= 0; v = arena[std::size_t(v)].parent) {
    out.push_back(arena[std::size_t(v)].assignment);
  }
  std::reverse(out.begin(), out.end());
  result.schedule = std::move(out);

  ws.peak_bytes = std::max(ws.peak_bytes, workspace_bytes(ws));
  arena.trim(kArenaRetainBytes);
  if (ps.footprint_bytes() > kArenaRetainBytes) ps = PartialSchedule();
  return result;
}

}  // namespace

void task_consideration_order_into(const std::vector<Task>& batch,
                                   TaskOrder order,
                                   std::vector<std::uint32_t>& out) {
  out.resize(batch.size());
  for (std::uint32_t i = 0; i < batch.size(); ++i) out[i] = i;
  if (order == TaskOrder::kBatchOrder) return;
  // Borrows the thread's search scratch (never the carried order).
  Workspace& ws = workspace();
  fill_keys(batch, order, ws.next_keys);
  ws.remap.resize(batch.size());
  sort_positions(out.data(), out.data() + out.size(), ws.next_keys.data(),
                 ws.remap.data());
}

std::vector<std::uint32_t> task_consideration_order(
    const std::vector<Task>& batch, TaskOrder order) {
  std::vector<std::uint32_t> idx;
  task_consideration_order_into(batch, order, idx);
  return idx;
}

std::size_t thread_workspace_bytes() { return workspace_bytes(workspace()); }

std::size_t thread_workspace_peak_bytes() { return workspace().peak_bytes; }

SearchEngine::SearchEngine(SearchConfig config) : config_(config) {}

SearchResult SearchEngine::run(const std::vector<Task>& batch,
                               const std::vector<SimDuration>& base_loads,
                               SimTime delivery_time,
                               const machine::Interconnect& net,
                               std::uint64_t vertex_budget) const {
  SearchResult result;
  if (batch.empty() || vertex_budget == 0) return result;
  RTDS_REQUIRE(batch.size() <= kMaxBatchTasks,
               "SearchEngine: phase batch above kMaxBatchTasks");

  Workspace& ws = workspace();
  if (batch.size() <= NodeNarrow::kMaxTasks) {
    return run_impl<NodeNarrow>(config_, batch, base_loads, delivery_time,
                                net, vertex_budget, ws, ws.narrow);
  }
  return run_impl<NodeWide>(config_, batch, base_loads, delivery_time, net,
                            vertex_budget, ws, ws.wide);
}

}  // namespace rtds::search
