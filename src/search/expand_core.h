// Vertex expansion for the search engine (engine.cc), its only caller.
// tests/search/simd_parity_test.cc proves the kernels behind the batched
// paths below against their scalar forms.
//
// expand_vertex() is the exact budget-interleaved successor generation of
// the original SearchEngine::run: every generated vertex (feasible or not)
// charges the budget, unplaceable tasks charge min(m, budget_left) in bulk,
// mid-loop budget death sets budget_exhausted, max_successors caps the
// group, and the returned order cursor is what children inherit
// (assignment-oriented only). Candidates come back sorted by the CL key.
//
// SIMD batching (search/simd.h) rides inside under exactness gates: the
// mask kernels are taken only when their verdicts provably equal the scalar
// loop's AND the batched budget accounting equals the interleaved one —
//   * whole-task batches (assignment-oriented) need budget_left >= m and no
//     max_successors cap, plus PartialSchedule::workers_mask_eligible;
//   * per-word batches (sequence-oriented) need budget_left >= popcount of
//     the word and no cap, plus PartialSchedule::tasks_mask_eligible.
// Both loops address tasks by consideration-order position (the layout of
// PartialSchedule's SoA constants), so neither chases the order permutation
// on the way to a verdict.
// Outside the gates the scalar loop runs unchanged, so SearchResults stay
// bit-identical to the pre-SIMD engine in every configuration.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "search/engine.h"
#include "search/partial_schedule.h"

namespace rtds::search::detail {

/// A feasible successor awaiting insertion into CL, with its sort key.
/// Lower keys are higher priority (front of CL). Within one successor group
/// the key tuple is a strict total order (the last significant component is
/// the branch index or worker id, unique per candidate), so any comparison
/// sort produces the historical stable_sort permutation.
struct Candidate {
  Assignment assignment;
  std::int64_t key1{0};
  std::int64_t key2{0};
  std::uint32_t key3{0};

  bool operator<(const Candidate& o) const {
    return std::tie(key1, key2, key3) < std::tie(o.key1, o.key2, o.key3);
  }
};

/// Stable in-place insertion sort; O(k) on the nearly-sorted groups the
/// heuristics produce, and no temp-buffer allocation (std::stable_sort
/// allocates one per call in libstdc++). Falls back to std::sort for large
/// groups — safe because candidate keys are strictly totally ordered within
/// a group, so every comparison sort yields the same permutation — unless
/// the group is already sorted, as sequence-oriented groups (keyed by branch
/// index) are when generated.
inline void sort_candidates(std::vector<Candidate>& c) {
  if (c.size() > 48) {
    if (!std::is_sorted(c.begin(), c.end())) std::sort(c.begin(), c.end());
    return;
  }
  for (std::size_t i = 1; i < c.size(); ++i) {
    Candidate tmp = c[i];
    std::size_t j = i;
    for (; j > 0 && tmp < c[j - 1]; --j) c[j] = c[j - 1];
    c[j] = tmp;
  }
}

/// Computes the CL sort key for a feasible assignment at the current CPS.
inline Candidate make_candidate(const SearchConfig& config,
                                const PartialSchedule& ps,
                                const std::vector<Task>& batch,
                                const Assignment& a,
                                std::uint32_t branch_index) {
  Candidate c;
  c.assignment = a;
  if (config.use_load_balance_cost) {
    // Resulting CE of the extended schedule (Sec. 4.4), tie-broken by the
    // task's own completion and the branch order.
    c.key1 = max_duration(ps.max_ce(), a.end_offset).us;
    c.key2 = a.end_offset.us;
    c.key3 = branch_index;
  } else if (config.representation == Representation::kAssignmentOriented) {
    switch (config.processor_order) {
      case ProcessorOrder::kIndexOrder:
        c.key1 = a.worker;
        break;
      case ProcessorOrder::kMinEndOffset:
        c.key1 = a.end_offset.us;
        c.key2 = a.worker;
        break;
      case ProcessorOrder::kMinCommCost:
        c.key1 = (a.exec_cost - batch[a.task_index].processing).us;
        c.key2 = a.end_offset.us;
        c.key3 = a.worker;
        break;
    }
  } else {
    // Sequence-oriented: tasks were generated in heuristic order already.
    c.key1 = branch_index;
  }
  return c;
}

/// One expansion of the vertex `ps` currently ends at. Appends the sorted
/// feasible successors to `out` and returns the order cursor children
/// inherit. `level_order` is caller-owned scratch (reused across calls).
inline std::uint32_t expand_vertex(const SearchConfig& config,
                                   PartialSchedule& ps,
                                   const std::vector<Task>& batch,
                                   std::uint32_t m, std::uint32_t cursor,
                                   std::uint64_t& budget_left,
                                   SearchStats& stats,
                                   std::vector<Candidate>& out,
                                   std::vector<ProcessorId>& level_order) {
  ++stats.expansions;
  out.clear();
  const auto n = static_cast<std::uint32_t>(batch.size());
  const std::uint32_t depth = ps.depth();
  if (config.max_depth != 0 && depth >= config.max_depth) {
    return cursor;  // depth-pruned: no successors
  }

  if (config.representation == Representation::kAssignmentOriented) {
    // Select the next task by the (static) task-order heuristic, branch
    // over every processor (Fig. 2). Tasks with no feasible placement
    // are skipped (see SearchConfig::skip_unplaceable_tasks) — their
    // infeasibility holds for the whole subtree, so children resume the
    // scan at the cursor this expansion returns.
    //
    // Queue offsets are fixed during one expansion, so min_ce is hoisted
    // and feeds the bulk lower-bound test: when even the least-loaded
    // worker cannot meet the deadline, all m placements are infeasible
    // and the budget is charged in one step (identical accounting to
    // evaluating each) without touching the queues.
    const SimDuration lo = ps.min_ce();
    std::uint32_t scan = cursor;
    while (scan < n) {
      // Find the next unassigned task at or after `scan`.
      scan = ps.first_unassigned_at_or_after(scan);
      if (scan == n) break;
      if (ps.unplaceable_at(scan, lo)) {
        const std::uint64_t charged = std::min<std::uint64_t>(m, budget_left);
        budget_left -= charged;
        stats.vertices_generated += charged;
        if (charged < m) stats.budget_exhausted = true;
      } else if (config.max_successors == 0 && budget_left >= m &&
                 ps.workers_mask_eligible_at(scan)) {
        // Batched Fig. 4 test across all m workers at once. The gates make
        // the accounting equal to the interleaved loop: the full group is
        // charged (no mid-task budget death possible) and no successor cap
        // can cut the group short. Feasible placements are re-evaluated
        // scalar to build the Assignment — single-sourced arithmetic.
        budget_left -= m;
        stats.vertices_generated += m;
        std::uint64_t bits = ps.feasible_workers_mask_at(scan);
        Assignment a;
        while (bits != 0) {
          const auto k =
              static_cast<std::uint32_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const bool ok = ps.evaluate_fast_at(scan, k, a);
          RTDS_ASSERT(ok);
          (void)ok;
          out.push_back(make_candidate(config, ps, batch, a, k));
        }
      } else {
        Assignment a;
        for (std::uint32_t k = 0; k < m; ++k) {
          if (budget_left == 0) {
            stats.budget_exhausted = true;
            break;
          }
          --budget_left;
          ++stats.vertices_generated;
          if (ps.evaluate_fast_at(scan, k, a)) {
            out.push_back(make_candidate(config, ps, batch, a, k));
            if (config.max_successors != 0 &&
                out.size() >= config.max_successors) {
              break;
            }
          }
        }
      }
      if (!out.empty() || stats.budget_exhausted ||
          !config.skip_unplaceable_tasks) {
        break;
      }
      ++scan;  // task unplaceable in this whole subtree: skip it
    }
    cursor = scan;
  } else {
    // Select the level's processor (round-robin per Fig. 1, or the
    // least-loaded-first heuristic the paper allows), branch over every
    // unassigned task in heuristic order. When the level's processor
    // admits no feasible task, skip_saturated_processors moves on to the
    // next processor in the same order (every evaluation still charged).
    level_order.resize(m);
    for (std::uint32_t k = 0; k < m; ++k) {
      level_order[k] = (depth + k) % m;
    }
    if (config.level_processor_order == LevelProcessorOrder::kLeastLoaded) {
      // Stable insertion sort (m is small; no stable_sort temp buffer).
      for (std::uint32_t i = 1; i < m; ++i) {
        const ProcessorId tmp = level_order[i];
        std::uint32_t j = i;
        for (; j > 0 && ps.ce(tmp) < ps.ce(level_order[j - 1]); --j) {
          level_order[j] = level_order[j - 1];
        }
        level_order[j] = tmp;
      }
    }
    const std::uint32_t max_rotations =
        config.skip_saturated_processors ? m : 1;
    const bool batchable =
        config.max_successors == 0 && ps.tasks_mask_eligible();
    const std::vector<std::uint64_t>& words = ps.unassigned_words();
    for (std::uint32_t rot = 0; rot < max_rotations; ++rot) {
      const ProcessorId worker = level_order[rot];
      std::uint32_t branch = 0;
      Assignment a;
      bool stop = false;
      // Iterate unassigned tasks in consideration order straight off the
      // bitset words (set bit = unassigned position).
      for (std::size_t w = 0; w < words.size() && !stop; ++w) {
        std::uint64_t bits = words[w];
        if (bits == 0) continue;
        const auto count =
            static_cast<std::uint32_t>(std::popcount(bits));
        if (batchable && budget_left >= count) {
          // Batched Fig. 4 test for this whole bitset word against the
          // level's worker: 64 contiguous positions per kernel call, masked
          // to the unassigned ones. Same gates as the worker-mask path — the
          // word is charged whole, so accounting matches the interleaved
          // loop exactly; the j-th set bit carries branch index branch+j,
          // exactly what the scalar loop would have assigned it.
          budget_left -= count;
          stats.vertices_generated += count;
          std::uint64_t feasible = ps.feasible_word_mask(worker, w) & bits;
          while (feasible != 0) {
            const auto lane =
                static_cast<std::uint32_t>(std::countr_zero(feasible));
            feasible &= feasible - 1;
            const auto j = static_cast<std::uint32_t>(
                std::popcount(bits & ((std::uint64_t{1} << lane) - 1)));
            const bool ok = ps.evaluate_fast_at(
                static_cast<std::uint32_t>((w << 6) + lane), worker, a);
            RTDS_ASSERT(ok);
            (void)ok;
            out.push_back(
                make_candidate(config, ps, batch, a, branch + j));
          }
          branch += count;
          continue;
        }
        while (bits != 0) {
          const auto pos = static_cast<std::uint32_t>(
              (w << 6) + std::uint32_t(std::countr_zero(bits)));
          bits &= bits - 1;
          if (budget_left == 0) {
            stats.budget_exhausted = true;
            stop = true;
            break;
          }
          --budget_left;
          ++stats.vertices_generated;
          if (ps.evaluate_fast_at(pos, worker, a)) {
            out.push_back(make_candidate(config, ps, batch, a, branch));
            if (config.max_successors != 0 &&
                out.size() >= config.max_successors) {
              stop = true;
              break;
            }
          }
          ++branch;
        }
      }
      if (!out.empty() || stats.budget_exhausted) break;
    }
  }

  sort_candidates(out);
  return cursor;
}

}  // namespace rtds::search::detail
