#include "tasks/batch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace rtds::tasks {
namespace {

Task make_task(TaskId id, SimDuration p, SimTime d) {
  Task t;
  t.id = id;
  t.processing = p;
  t.deadline = d;
  t.affinity.add(0);
  return t;
}

TEST(BatchTest, StartsEmpty) {
  Batch b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_THROW(static_cast<void>(b.min_slack(SimTime::zero())), InvalidArgument);
}

TEST(BatchTest, MergePreservesOrder) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000})});
  b.merge_arrivals({make_task(3, msec(1), SimTime{100000})});
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
  EXPECT_EQ(b.tasks()[1].id, 2u);
  EXPECT_EQ(b.tasks()[2].id, 3u);
}

TEST(BatchTest, ReadmittedTaskKeepsBatchOrder) {
  // The pipeline readmits a refused task by leaving its position unmarked:
  // it keeps its place, ahead of every later arrival.
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000})});
  b.remove_marked({0, 1});  // 1 refused (readmitted), 2 delivered
  b.merge_arrivals({make_task(3, msec(1), SimTime{100000})});
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
  EXPECT_EQ(b.tasks()[1].id, 3u);  // arrivals append
}

TEST(BatchTest, RemoveScheduledDropsOnlyListed) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000}),
                    make_task(3, msec(1), SimTime{100000})});
  b.remove_marked({1, 0, 1});
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 2u);
  // Unmarked positions are kept.
  b.remove_marked({0});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, RemovedIdsCanReappearAsNewTasks) {
  // The batch keeps no id index, so a removed id leaves nothing behind
  // (the pipeline's ledger is what rejects a reused id).
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000})});
  b.remove_marked({1});
  EXPECT_TRUE(b.empty());
  b.merge_arrivals({make_task(1, msec(2), SimTime{100000})});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, CullMissedRemovesUnreachable) {
  Batch b;
  // Task 1 reachable at t=0; task 2 unreachable (p=5ms, d=2ms).
  b.merge_arrivals({make_task(1, msec(1), SimTime::zero() + msec(10)),
                    make_task(2, msec(5), SimTime::zero() + msec(2))});
  const auto culled = b.cull_missed(SimTime::zero());
  ASSERT_EQ(culled.size(), 1u);
  EXPECT_EQ(culled[0].id, 2u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
}

TEST(BatchTest, CullMissedIsTimeSensitive) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime::zero() + msec(10))});
  EXPECT_TRUE(b.cull_missed(SimTime::zero() + msec(8)).empty());
  EXPECT_EQ(b.cull_missed(SimTime::zero() + msec(9)).size(), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, CulledTaskIdIsReleased) {
  Batch b;
  b.merge_arrivals({make_task(7, msec(5), SimTime::zero() + msec(1))});
  EXPECT_EQ(b.cull_missed(SimTime::zero()).size(), 1u);
  b.merge_arrivals({make_task(7, msec(1), SimTime::zero() + msec(100))});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, MinSlackFindsTightestTask) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime::zero() + msec(20)),
                    make_task(2, msec(5), SimTime::zero() + msec(9)),
                    make_task(3, msec(1), SimTime::zero() + msec(30))});
  // Slacks at t=0: 18ms, 4ms, 29ms.
  EXPECT_EQ(b.min_slack(SimTime::zero()), msec(4));
  // At t = 2ms: 16, 2, 27.
  EXPECT_EQ(b.min_slack(SimTime::zero() + msec(2)), msec(2));
}

TEST(BatchTest, ClearEmptiesEverything) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime{1000000})});
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, ReadmitAfterPartialDelivery) {
  // A phase schedules {1,2,3} and the backend accepts only {1,3}: the
  // pipeline marks the accepted positions, so the batch ends with exactly
  // the refused task pending, once.
  Batch b;
  const Task t1 = make_task(1, msec(1), SimTime{1000000});
  const Task t2 = make_task(2, msec(2), SimTime{1000000});
  const Task t3 = make_task(3, msec(3), SimTime{1000000});
  b.merge_arrivals({t1, t2, t3});
  b.remove_marked({1, 0, 1});
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 2u);
  EXPECT_EQ(b.tasks()[0].processing, msec(2));
  // Refused again in a later phase: still pending, still once.
  b.remove_marked({0});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, RemoveScheduledReadmitInterleaving) {
  // Several rounds of schedule-everything / readmit-the-refused must keep
  // exactly the refused tasks, in their batch order.
  Batch b;
  std::vector<Task> all;
  for (TaskId id = 0; id < 6; ++id) {
    all.push_back(make_task(id, msec(1 + std::int64_t(id)), SimTime{5000000}));
  }
  b.merge_arrivals(all);
  for (int round = 0; round < 4; ++round) {
    // Schedule the whole batch; every other task is refused and stays.
    std::vector<std::uint8_t> delivered;
    std::vector<TaskId> refused;
    for (const Task& t : b.tasks()) {
      const bool stays = (t.id + std::uint64_t(round)) % 2 == 0;
      delivered.push_back(stays ? 0 : 1);
      if (stays) refused.push_back(t.id);
    }
    b.remove_marked(delivered);
    ASSERT_EQ(b.size(), refused.size());
    for (std::size_t i = 0; i < refused.size(); ++i) {
      EXPECT_EQ(b.tasks()[i].id, refused[i]);
    }
  }
}

TEST(BatchTest, RemoveScheduledIgnoresAbsentIds) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{1000000})});
  b.remove_marked({1});
  EXPECT_TRUE(b.empty());
  // An id that was never pending merges like any other.
  b.merge_arrivals({make_task(99, msec(1), SimTime{1000000})});
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 99u);
}

TEST(BatchTest, CullMissedCompactsInOrderAndReleasesIds) {
  // Culled tasks come back in batch order, survivors keep theirs, and the
  // culled ids can be merged again.
  Batch b;
  const SimTime t0 = SimTime::zero();
  b.merge_arrivals({make_task(1, msec(5), t0 + msec(2)),     // culled
                    make_task(2, msec(1), t0 + msec(50)),
                    make_task(3, msec(9), t0 + msec(4)),     // culled
                    make_task(4, msec(1), t0 + msec(60)),
                    make_task(5, msec(7), t0 + msec(3))});   // culled
  std::vector<Task> culled{make_task(42, msec(1), t0)};  // cleared first
  b.cull_missed(t0, culled);
  ASSERT_EQ(culled.size(), 3u);
  EXPECT_EQ(culled[0].id, 1u);
  EXPECT_EQ(culled[1].id, 3u);
  EXPECT_EQ(culled[2].id, 5u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 2u);
  EXPECT_EQ(b.tasks()[1].id, 4u);
  b.merge_arrivals(culled);  // culled ids are not held back
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.tasks()[2].id, 1u);  // merging appends
}

TEST(BatchTest, RemoveMarkedRequiresOneFlagPerTask) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{1000000}),
                    make_task(2, msec(1), SimTime{1000000})});
  EXPECT_THROW(b.remove_marked({1}), InvalidArgument);
  EXPECT_THROW(b.remove_marked({1, 0, 0}), InvalidArgument);
  EXPECT_EQ(b.size(), 2u);  // nothing removed
}

}  // namespace
}  // namespace rtds::tasks
