#include "search/partial_schedule.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;

std::vector<Task> three_task_batch() {
  // Three tasks on a 2-worker machine, C = 2ms, delivery at t=10ms.
  std::vector<Task> batch(3);
  batch[0].id = 0;
  batch[0].processing = msec(4);
  batch[0].deadline = SimTime::zero() + msec(30);
  batch[0].affinity = AffinitySet::single(0);
  batch[1].id = 1;
  batch[1].processing = msec(2);
  batch[1].deadline = SimTime::zero() + msec(16);
  batch[1].affinity = AffinitySet::single(1);
  batch[2].id = 2;
  batch[2].processing = msec(6);
  batch[2].deadline = SimTime::zero() + msec(50);
  batch[2].affinity = AffinitySet::all(2);
  return batch;
}

machine::Interconnect net2() {
  return machine::Interconnect::cut_through(2, msec(2));
}

TEST(PartialScheduleTest, InitialState) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {msec(1), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  EXPECT_EQ(ps.depth(), 0u);
  EXPECT_EQ(ps.batch_size(), 3u);
  EXPECT_FALSE(ps.complete());
  EXPECT_EQ(ps.ce(0), msec(1));
  EXPECT_EQ(ps.ce(1), SimDuration::zero());
  EXPECT_EQ(ps.max_ce(), msec(1));
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_FALSE(ps.assigned(i));
}

TEST(PartialScheduleTest, ValidatesConstruction) {
  const auto batch = three_task_batch();
  const auto net = net2();
  EXPECT_THROW(PartialSchedule(&batch, {msec(1)}, SimTime::zero(), &net),
               InvalidArgument);  // wrong base_loads size
  EXPECT_THROW(
      PartialSchedule(&batch, {msec(1), usec(-1)}, SimTime::zero(), &net),
      InvalidArgument);  // negative load
}

TEST(PartialScheduleTest, EvaluateComputesCostAndEnd) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  // Task 0 on worker 0 (affine): cost 4ms, ends at offset 4ms.
  const auto a = ps.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->exec_cost, msec(4));
  EXPECT_EQ(a->end_offset, msec(4));
  // Task 0 on worker 1 (remote): cost 6ms.
  const auto b = ps.evaluate(0, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->exec_cost, msec(6));
}

TEST(PartialScheduleTest, FeasibilityTestMatchesFig4) {
  const auto batch = three_task_batch();
  const auto net = net2();
  // Task 1: p=2ms, d=16ms, affine to worker 1.
  // delivery 10ms: on worker 1 end offset 2 -> 12 <= 16 feasible.
  // on worker 0: cost 4 -> 14 <= 16 feasible.
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  EXPECT_TRUE(ps.evaluate(1, 1).has_value());
  EXPECT_TRUE(ps.evaluate(1, 0).has_value());
  // With delivery at 13ms, worker 0 gives 13+4=17 > 16: infeasible, while
  // the affine worker 1 gives 13+2=15 <= 16: still feasible.
  PartialSchedule late(&batch, {SimDuration::zero(), SimDuration::zero()},
                       SimTime::zero() + msec(13), &net);
  EXPECT_FALSE(late.evaluate(1, 0).has_value());
  EXPECT_TRUE(late.evaluate(1, 1).has_value());
}

TEST(PartialScheduleTest, FeasibilityBoundaryExactDeadlineIsFeasible) {
  const auto batch = three_task_batch();
  const auto net = net2();
  // Task 1 on worker 1: delivery 14ms + 2ms = 16ms == deadline -> feasible.
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(14), &net);
  EXPECT_TRUE(ps.evaluate(1, 1).has_value());
  // One microsecond later it flips.
  PartialSchedule ps2(&batch, {SimDuration::zero(), SimDuration::zero()},
                      SimTime::zero() + msec(14) + usec(1), &net);
  EXPECT_FALSE(ps2.evaluate(1, 1).has_value());
}

TEST(PartialScheduleTest, BaseLoadDelaysQueue) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {msec(5), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  const auto a = ps.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->end_offset, msec(9));  // 5 residual + 4 processing
}

TEST(PartialSchedulePushTest, UpdatesState) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  const auto a = ps.evaluate(0, 0);
  ps.push(*a);
  EXPECT_EQ(ps.depth(), 1u);
  EXPECT_TRUE(ps.assigned(0));
  EXPECT_EQ(ps.ce(0), msec(4));
  EXPECT_EQ(ps.max_ce(), msec(4));
  // Queueing: task 2 behind task 0 on worker 0.
  const auto b = ps.evaluate(2, 0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->end_offset, msec(10));
  ps.push(*b);
  EXPECT_EQ(ps.ce(0), msec(10));
  EXPECT_EQ(ps.max_ce(), msec(10));
}

TEST(PartialSchedulePushTest, CompleteAtFullDepth) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(1), &net);
  ps.push(*ps.evaluate(0, 0));
  ps.push(*ps.evaluate(1, 1));
  ps.push(*ps.evaluate(2, 1));
  EXPECT_TRUE(ps.complete());
  EXPECT_EQ(ps.path().size(), 3u);
}

TEST(PartialSchedulePushTest, EvaluateRejectsAssignedTask) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(1), &net);
  ps.push(*ps.evaluate(0, 0));
  EXPECT_THROW(static_cast<void>(ps.evaluate(0, 1)), InvalidArgument);
}

TEST(PartialSchedulePopTest, RestoresExactState) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {msec(1), SimDuration::zero()},
                     SimTime::zero() + msec(5), &net);
  const SimDuration ce0 = ps.ce(0);
  const SimDuration max0 = ps.max_ce();
  ps.push(*ps.evaluate(2, 0));
  ps.pop();
  EXPECT_EQ(ps.depth(), 0u);
  EXPECT_FALSE(ps.assigned(2));
  EXPECT_EQ(ps.ce(0), ce0);
  EXPECT_EQ(ps.max_ce(), max0);
  EXPECT_THROW(ps.pop(), InvalidArgument);
}

TEST(PartialSchedulePopTest, MaxCeRecomputedAfterPop) {
  const auto batch = three_task_batch();
  const auto net = net2();
  PartialSchedule ps(&batch, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(1), &net);
  ps.push(*ps.evaluate(1, 1));            // ce1 = 2ms
  ps.push(*ps.evaluate(2, 0));            // ce0 = 6ms, max = 6ms
  EXPECT_EQ(ps.max_ce(), msec(6));
  ps.pop();                               // removes the 6ms defining max
  EXPECT_EQ(ps.max_ce(), msec(2));
}

TEST(PartialSchedulePropertyTest, RandomPushPopKeepsInvariants) {
  // Property: after any interleaving of pushes and pops, ce_k equals the
  // base load plus the sum of costs assigned to k, and max_ce is the max.
  Xoshiro256ss rng(99);
  constexpr std::uint32_t kWorkers = 4;
  const auto net = machine::Interconnect::cut_through(kWorkers, msec(1));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Task> batch(12);
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      batch[i].id = i;
      batch[i].processing = rng.uniform_duration(usec(100), msec(5));
      batch[i].deadline = SimTime::zero() + msec(200);
      batch[i].affinity.add(static_cast<tasks::ProcessorId>(
          rng.uniform_int(0, kWorkers - 1)));
    }
    PartialSchedule ps(&batch, std::vector<SimDuration>(kWorkers, usec(50)),
                       SimTime::zero() + msec(1), &net);
    std::vector<Assignment> stack;
    for (int step = 0; step < 200; ++step) {
      const bool can_push = !ps.complete();
      const bool do_push =
          can_push && (stack.empty() || rng.bernoulli(0.6));
      if (do_push) {
        // Find any unassigned task; try a random worker.
        std::uint32_t task = 0;
        while (ps.assigned(task)) ++task;
        const auto w = static_cast<tasks::ProcessorId>(
            rng.uniform_int(0, kWorkers - 1));
        if (auto a = ps.evaluate(task, w)) {
          ps.push(*a);
          stack.push_back(*a);
        }
      } else if (!stack.empty()) {
        ps.pop();
        stack.pop_back();
      }
      // Check the invariant.
      std::vector<SimDuration> expect(kWorkers, usec(50));
      for (const Assignment& a : stack) {
        expect[a.worker] += a.exec_cost;
      }
      SimDuration expect_max = SimDuration::zero();
      for (std::uint32_t k = 0; k < kWorkers; ++k) {
        ASSERT_EQ(ps.ce(k), expect[k]);
        expect_max = max_duration(expect_max, expect[k]);
      }
      ASSERT_EQ(ps.max_ce(), expect_max);
      ASSERT_EQ(ps.depth(), stack.size());
    }
  }
}

/// Fields of two assignments agree (Assignment has no operator==).
void expect_same_assignment(const Assignment& a, const Assignment& b) {
  EXPECT_EQ(a.task_index, b.task_index);
  EXPECT_EQ(a.worker, b.worker);
  EXPECT_EQ(a.exec_cost, b.exec_cost);
  EXPECT_EQ(a.prev_ce, b.prev_ce);
  EXPECT_EQ(a.prev_max_ce, b.prev_max_ce);
  EXPECT_EQ(a.start_offset, b.start_offset);
  EXPECT_EQ(a.end_offset, b.end_offset);
}

/// Everything observable about two schedules over the same batch agrees:
/// per-task constants, assignment state and evaluations, and the
/// position scans.
void expect_same_schedule(const PartialSchedule& reused,
                          const PartialSchedule& fresh, std::uint32_t m) {
  ASSERT_EQ(reused.batch_size(), fresh.batch_size());
  ASSERT_EQ(reused.depth(), fresh.depth());
  EXPECT_EQ(reused.max_ce(), fresh.max_ce());
  for (std::uint32_t k = 0; k < m; ++k) EXPECT_EQ(reused.ce(k), fresh.ce(k));
  const std::uint32_t n = fresh.batch_size();
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto a = reused.constants(i);
    const auto b = fresh.constants(i);
    EXPECT_EQ(a.processing_us, b.processing_us) << "task " << i;
    EXPECT_EQ(a.es_off_us, b.es_off_us) << "task " << i;
    EXPECT_EQ(a.d_off_us, b.d_off_us) << "task " << i;
    EXPECT_EQ(a.affinity_bits, b.affinity_bits) << "task " << i;
    EXPECT_EQ(a.workers_required, b.workers_required) << "task " << i;
    ASSERT_EQ(reused.assigned(i), fresh.assigned(i)) << "task " << i;
    if (fresh.assigned(i)) continue;
    for (ProcessorId k = 0; k < m; ++k) {
      const auto ea = reused.evaluate(i, k);
      const auto eb = fresh.evaluate(i, k);
      ASSERT_EQ(ea.has_value(), eb.has_value()) << "task " << i << " on " << k;
      if (ea) expect_same_assignment(*ea, *eb);
    }
  }
  for (std::uint32_t pos = 0; pos <= n; ++pos) {
    EXPECT_EQ(reused.first_unassigned_at_or_after(pos),
              fresh.first_unassigned_at_or_after(pos))
        << "pos " << pos;
    if (pos < n) {
      EXPECT_EQ(reused.task_at(pos), fresh.task_at(pos));
    }
  }
  // The word kernel reads whole words: stale lanes past the live ones (or
  // of assigned positions) must not leak through the unassigned mask.
  ASSERT_EQ(reused.unassigned_words(), fresh.unassigned_words());
  if (fresh.tasks_mask_eligible()) {
    const auto& words = fresh.unassigned_words();
    for (ProcessorId k = 0; k < m; ++k) {
      for (std::size_t w = 0; w < words.size(); ++w) {
        EXPECT_EQ(reused.feasible_word_mask(k, w) & words[w],
                  fresh.feasible_word_mask(k, w) & words[w])
            << "word " << w << " worker " << k;
      }
    }
  }
}

TEST(PartialScheduleTest, ResetReusedScheduleMatchesFreshOne) {
  // A schedule reset() for the next phase — after pushes on a larger batch
  // under a different consideration order — must be indistinguishable from
  // one constructed fresh. Each new batch shrinks across a 64-task word
  // boundary, so the reused arrays hold stale lanes past the live ones.
  constexpr std::uint32_t kWorkers = 3;
  const auto net = machine::Interconnect::cut_through(kWorkers, msec(1));
  Xoshiro256ss rng(0x5E5E7ULL);
  const auto make_batch = [&](std::uint32_t n) {
    std::vector<Task> batch(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      batch[i].id = i;
      batch[i].processing = rng.uniform_duration(usec(100), msec(3));
      batch[i].deadline =
          SimTime::zero() + rng.uniform_duration(msec(2), msec(60));
      if (rng.bernoulli(0.3)) {
        batch[i].earliest_start =
            SimTime::zero() + rng.uniform_duration(usec(0), msec(20));
      }
      batch[i].affinity.add(static_cast<tasks::ProcessorId>(
          rng.uniform_int(0, kWorkers - 1)));
    }
    return batch;
  };
  const auto shuffled = [&](std::uint32_t n) {
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
    for (std::uint32_t i = n; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::uint32_t>(rng.uniform_int(0, i - 1))]);
    }
    return order;
  };
  // Pushes up to `count` feasible assignments, first fit in position order.
  const auto push_some = [&](PartialSchedule& ps, std::uint32_t count) {
    std::vector<Assignment> pushed;
    for (std::uint32_t pos = 0; pos < ps.batch_size() && pushed.size() < count;
         ++pos) {
      for (ProcessorId k = 0; k < kWorkers; ++k) {
        if (auto a = ps.evaluate(ps.task_at(pos), k)) {
          ps.push(*a);
          pushed.push_back(*a);
          break;
        }
      }
    }
    return pushed;
  };

  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {150, 100}, {70, 60}, {129, 64}, {65, 1}};
  for (const auto& [big_n, small_n] : shapes) {
    for (const bool identity : {false, true}) {
      const auto big = make_batch(big_n);
      const auto big_order = shuffled(big_n);
      PartialSchedule reused(&big, {msec(2), SimDuration::zero(), msec(1)},
                             SimTime::zero() + msec(1), &net);
      reused.set_consideration_order(big_order.data());
      (void)push_some(reused, 40);

      const auto small = make_batch(small_n);
      const auto small_order = shuffled(small_n);
      const std::uint32_t* order = identity ? nullptr : small_order.data();
      const std::vector<SimDuration> loads{SimDuration::zero(), msec(3),
                                           usec(500)};
      const SimTime delivery = SimTime::zero() + msec(2);
      reused.reset(&small, loads, delivery, &net, order);
      PartialSchedule fresh(&small, loads, delivery, &net);
      fresh.set_consideration_order(order);
      SCOPED_TRACE("shape " + std::to_string(big_n) + "->" +
                   std::to_string(small_n) +
                   (identity ? " identity" : " shuffled"));
      expect_same_schedule(reused, fresh, kWorkers);

      // The same pushes on both, then the same pops, keep them in step.
      const auto pushed = push_some(fresh, 30);
      for (const Assignment& a : pushed) reused.push(a);
      expect_same_schedule(reused, fresh, kWorkers);
      for (std::size_t i = 0; i < pushed.size() / 2; ++i) {
        reused.pop();
        fresh.pop();
      }
      expect_same_schedule(reused, fresh, kWorkers);
    }
  }
}

}  // namespace
}  // namespace rtds::search
