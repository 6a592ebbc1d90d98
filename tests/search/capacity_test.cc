// Capacity regression suite for the 65535-task cap lift: the packed node
// header now widens past 16-bit depth/cursor fields, so batches beyond
// 65535 tasks must schedule correctly — proved bit-identically against the
// frozen reference engine, which never had the cap (its nodes always
// carried 32-bit cursors). Also pins the narrow->wide dispatch boundary,
// bitset word-boundary sizes, and the m=1 / m=64 simd lane-remainder
// extremes.
//
// The structural limit itself (kMaxBatchTasks) is asserted as a constant:
// exercising the InvalidArgument path at runtime would need a 2^30-task
// vector (~70 GB of Task objects), so the guard is covered by the REQUIRE
// in SearchEngine::run and the compile-time pin below.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "machine/interconnect.h"
#include "search/engine.h"
#include "search/partial_schedule.h"
#include "search/reference_engine.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;
using tasks::ProcessorId;

static_assert(kMaxBatchTasks == (std::uint32_t{1} << 30),
              "structural batch cap moved — update docs/ARCHITECTURE.md");

struct Scenario {
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery_time{SimTime::zero()};
  std::uint32_t num_workers{1};
  SimDuration comm{SimDuration::zero()};
  std::uint64_t vertex_budget{1};
};

/// Generous capacity scenario: every task is feasible on every affinity
/// holder even if one worker absorbed the whole batch, so depth-first
/// search walks straight to a leaf at depth n with no backtracking — the
/// shape that makes an n=65536 reference run tractable (O(n * m)
/// evaluations) while still forcing depth and cursor through the wide
/// header fields.
Scenario make_capacity_scenario(Xoshiro256ss& rng, std::uint32_t n,
                                std::uint32_t m) {
  Scenario s;
  s.num_workers = m;
  s.comm = usec(200);
  s.delivery_time = SimTime::zero() + usec(5000);
  // Upper bound on any completion offset: all n tasks on one worker.
  const std::int64_t horizon_us =
      std::int64_t{n} * 1500 + 1'000'000;
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 1000));
    t.deadline = s.delivery_time + usec(horizon_us);
    if (rng.bernoulli(0.2)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 4000));
    }
    // Mixed affinities so the worker-mask kernel sees real bit patterns,
    // not just all-ones lanes.
    if (rng.bernoulli(0.7)) {
      t.affinity = AffinitySet::all(m);
    } else {
      const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, m - 1)));
      }
    }
  }
  s.base_loads.assign(m, SimDuration::zero());
  s.vertex_budget = std::uint64_t{n} * m + 1000;
  return s;
}

/// Adversarial scenario at a pinned (n, m): the equivalence_test generator
/// reshaped to exact sizes, for word-boundary and lane-remainder sweeps.
Scenario make_sized_scenario(Xoshiro256ss& rng, std::uint32_t n,
                             std::uint32_t m) {
  Scenario s;
  s.num_workers = m;
  s.comm = usec(rng.uniform_int(0, 8000));
  s.delivery_time = SimTime::zero() + usec(rng.uniform_int(0, 20000));
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 10000));
    // Straddles the feasible/hopeless boundary: dead ends, unplaceable
    // skips, and bulk budget charges all occur.
    t.deadline = SimTime::zero() + usec(rng.uniform_int(500, 90000));
    if (rng.bernoulli(0.3)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 40000));
    }
    if (rng.bernoulli(0.25)) {
      t.affinity = AffinitySet::all(m);
    } else {
      const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, m - 1)));
      }
    }
    if (m >= 2 && rng.bernoulli(0.2)) {
      t.workers_required =
          static_cast<std::uint32_t>(rng.uniform_int(2, m + 1));
    }
  }
  s.base_loads.resize(m);
  for (auto& load : s.base_loads) {
    load = rng.bernoulli(0.5) ? SimDuration::zero()
                              : usec(rng.uniform_int(0, 15000));
  }
  switch (rng.uniform_int(0, 2)) {
    case 0:
      s.vertex_budget = std::uint64_t(rng.uniform_int(1, 60));
      break;
    case 1:
      s.vertex_budget = std::uint64_t(rng.uniform_int(60, 2000));
      break;
    default:
      s.vertex_budget = std::uint64_t(rng.uniform_int(2000, 30000));
      break;
  }
  return s;
}

void expect_identical(const SearchResult& fast, const SearchResult& ref,
                      const std::string& where) {
  ASSERT_EQ(fast.stats.vertices_generated, ref.stats.vertices_generated)
      << where;
  ASSERT_EQ(fast.stats.expansions, ref.stats.expansions) << where;
  ASSERT_EQ(fast.stats.backtracks, ref.stats.backtracks) << where;
  ASSERT_EQ(fast.stats.max_depth, ref.stats.max_depth) << where;
  ASSERT_EQ(fast.stats.reached_leaf, ref.stats.reached_leaf) << where;
  ASSERT_EQ(fast.stats.dead_end, ref.stats.dead_end) << where;
  ASSERT_EQ(fast.stats.budget_exhausted, ref.stats.budget_exhausted) << where;
  ASSERT_EQ(fast.schedule.size(), ref.schedule.size()) << where;
  for (std::size_t i = 0; i < fast.schedule.size(); ++i) {
    const Assignment& a = fast.schedule[i];
    const Assignment& b = ref.schedule[i];
    ASSERT_EQ(a.task_index, b.task_index) << where << " depth " << i;
    ASSERT_EQ(a.worker, b.worker) << where << " depth " << i;
    ASSERT_EQ(a.exec_cost, b.exec_cost) << where << " depth " << i;
    ASSERT_EQ(a.prev_ce, b.prev_ce) << where << " depth " << i;
    ASSERT_EQ(a.prev_max_ce, b.prev_max_ce) << where << " depth " << i;
    ASSERT_EQ(a.start_offset, b.start_offset) << where << " depth " << i;
    ASSERT_EQ(a.end_offset, b.end_offset) << where << " depth " << i;
  }
}

void run_both(const SearchConfig& cfg, const Scenario& s,
              const std::string& where, bool expect_leaf = false) {
  const auto net =
      machine::Interconnect::cut_through(s.num_workers, s.comm);
  const SearchResult fast = SearchEngine(cfg).run(
      s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
  const SearchResult ref = reference::run(cfg, s.batch, s.base_loads,
                                          s.delivery_time, net,
                                          s.vertex_budget);
  expect_identical(fast, ref, where);
  if (expect_leaf) {
    ASSERT_TRUE(fast.stats.reached_leaf) << where;
    ASSERT_EQ(fast.schedule.size(), s.batch.size()) << where;
    ASSERT_EQ(fast.stats.max_depth, s.batch.size()) << where;
  }
}

TEST(SearchCapacityTest, N65536SchedulesBitIdenticalToReference) {
  // 65536 is the first size the narrow 16-bit header cannot hold: depth at
  // the leaf is 65536 and overflows uint16 to 0. The regression for the
  // lifted cap: the wide-header engine must walk to the full-depth leaf and
  // match the (never-capped) reference exactly.
  Xoshiro256ss rng(0xCAB0057ULL);
  const Scenario s = make_capacity_scenario(rng, 65536, 4);
  for (const bool lb : {true, false}) {
    SearchConfig cfg;
    cfg.strategy = SearchStrategy::kDepthFirst;
    cfg.representation = Representation::kAssignmentOriented;
    cfg.use_load_balance_cost = lb;
    run_both(cfg, s, lb ? "n65536/ce" : "n65536/nolb",
             /*expect_leaf=*/true);
  }
}

TEST(SearchCapacityTest, N65536BudgetExhaustionMatchesReference) {
  // Budget dies mid-walk long before the leaf: the wide header must charge,
  // bulk-charge, and terminate exactly like the reference.
  Xoshiro256ss rng(0xCAB0058ULL);
  Scenario s = make_capacity_scenario(rng, 65536, 4);
  s.vertex_budget = 50'000;
  SearchConfig cfg;
  run_both(cfg, s, "n65536/starved");
}

TEST(SearchCapacityTest, NarrowWideBoundaryDispatch) {
  // 65535 runs on the narrow header, 65536 on the wide one; both must be
  // bit-identical to the reference across the dispatch boundary.
  Xoshiro256ss rng(0xB0DA7ULL);
  for (const std::uint32_t n : {65535u, 65536u}) {
    const Scenario s = make_capacity_scenario(rng, n, 2);
    SearchConfig cfg;
    run_both(cfg, s, "boundary n=" + std::to_string(n),
             /*expect_leaf=*/true);
  }
}

TEST(SearchCapacityTest, WordBoundarySizesMatchReference) {
  // n exactly at unassigned-bitset word boundaries: final word full (64,
  // 128) or holding a single bit (65). The task-mask batched path and the
  // word scans must agree with the reference in both shapes.
  Xoshiro256ss rng(0x40DB0BDULL);
  SearchConfig assign_dfs;
  SearchConfig assign_bfs;
  assign_bfs.strategy = SearchStrategy::kBestFirst;
  SearchConfig seq_dfs;
  seq_dfs.representation = Representation::kSequenceOriented;
  SearchConfig pruned;
  pruned.max_successors = 3;
  pruned.max_depth = 96;
  const SearchConfig configs[] = {assign_dfs, assign_bfs, seq_dfs, pruned};
  for (const std::uint32_t n : {63u, 64u, 65u, 127u, 128u}) {
    for (std::uint32_t rep = 0; rep < 10; ++rep) {
      const Scenario s = make_sized_scenario(rng, n, 6);
      for (std::size_t c = 0; c < std::size(configs); ++c) {
        run_both(configs[c], s,
                 "word n=" + std::to_string(n) + " rep=" +
                     std::to_string(rep) + " cfg=" + std::to_string(c));
      }
    }
  }
}

TEST(SearchCapacityTest, LaneRemainderExtremesMatchReference) {
  // m=1 (single lane, pure remainder path) and m=64 (full mask width, zero
  // remainder): the simd worker-mask sweep at both ends of the lane range.
  Xoshiro256ss rng(0x1A4E5ULL);
  SearchConfig assign_dfs;
  SearchConfig seq_dfs;
  seq_dfs.representation = Representation::kSequenceOriented;
  for (const std::uint32_t m : {1u, 64u}) {
    for (std::uint32_t rep = 0; rep < 12; ++rep) {
      const Scenario s = make_sized_scenario(rng, 256, m);
      run_both(assign_dfs, s,
               "m=" + std::to_string(m) + " rep=" + std::to_string(rep) +
                   " assign");
      run_both(seq_dfs, s,
               "m=" + std::to_string(m) + " rep=" + std::to_string(rep) +
                   " seq");
    }
  }
}

TEST(SearchCapacityTest, WorkspacePeakTracksWideRuns) {
  // The engine reports per-thread workspace bytes for the bench memory
  // column; a wide-header run must register a nonzero, plausible peak.
  // Each gtest case is its own ctest process, so drive a run here rather
  // than relying on a sibling test having populated the counters.
  Xoshiro256ss rng(0x9A4A11E1ULL);
  const Scenario s = make_capacity_scenario(rng, 65536, 2);
  SearchConfig cfg;
  (void)SearchEngine(cfg).run(
      s.batch, s.base_loads, s.delivery_time,
      machine::Interconnect::cut_through(s.num_workers, s.comm),
      s.vertex_budget);
  EXPECT_GE(thread_workspace_peak_bytes(), thread_workspace_bytes());
  EXPECT_GT(thread_workspace_peak_bytes(), 0u);
}

TEST(SearchCapacityTest, WorkspaceBytesIncludeTheRetainedSchedule) {
  // The engine keeps its PartialSchedule in the thread's workspace across
  // runs, so the workspace byte count must include that schedule's
  // storage. At n=65536 the schedule's SoA constants and path reserve are
  // several MB, far more than the node arena of a 1000-vertex run; batch
  // order keeps the order-carrying vectors out of the sum, and a fresh
  // thread starts from an empty workspace whatever ran before.
  Xoshiro256ss rng(0x5C4ED01EULL);
  Scenario s = make_capacity_scenario(rng, 65536, 2);
  s.vertex_budget = 1000;
  SearchConfig cfg;
  cfg.task_order = TaskOrder::kBatchOrder;
  const auto net = machine::Interconnect::cut_through(s.num_workers, s.comm);
  std::size_t bytes = 0;
  std::size_t peak = 0;
  std::thread([&] {
    (void)SearchEngine(cfg).run(s.batch, s.base_loads, s.delivery_time, net,
                                s.vertex_budget);
    bytes = thread_workspace_bytes();
    peak = thread_workspace_peak_bytes();
  }).join();
  const PartialSchedule fresh(&s.batch, s.base_loads, s.delivery_time, &net);
  EXPECT_GE(bytes, fresh.footprint_bytes());
  EXPECT_GE(peak, bytes);
}

}  // namespace
}  // namespace rtds::search
