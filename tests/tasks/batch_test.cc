#include "tasks/batch.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
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

TEST(BatchTest, MergeSkipsDuplicateIdsInsteadOfAborting) {
  // A readmitted task racing a same-id arrival must not crash the host:
  // the duplicate is skipped and the pending copy wins.
  Batch b;
  EXPECT_EQ(b.merge_arrivals({make_task(1, msec(1), SimTime{100000})}), 1u);
  EXPECT_EQ(b.merge_arrivals({make_task(1, msec(9), SimTime{100000})}), 0u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].processing, msec(1));  // first copy kept
}

TEST(BatchTest, ReadmitInsertsOnlyWhenAbsent) {
  Batch b;
  const Task t = make_task(5, msec(2), SimTime{100000});
  EXPECT_TRUE(b.readmit(t));    // not pending: inserted
  EXPECT_FALSE(b.readmit(t));   // already pending: no-op
  EXPECT_EQ(b.size(), 1u);
  b.remove_marked({1});
  EXPECT_TRUE(b.readmit(t));    // removed, so readmission re-inserts
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, ReadmittedTaskKeepsBatchOrder) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000})});
  b.remove_marked({1, 0});
  EXPECT_TRUE(b.readmit(make_task(1, msec(1), SimTime{100000})));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 2u);  // readmission appends
  EXPECT_EQ(b.tasks()[1].id, 1u);
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

TEST(BatchTest, RemoveScheduledUnregistersExactlyTheRemovedIds) {
  // Regression: the id index used to be updated from the remove_if tail
  // range, which holds shifted copies of the KEPT elements — so removing
  // {1,3} from [1,2,3] unregistered 2 and 3 and left a ghost id 1 that
  // blocked readmission forever.
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000}),
                    make_task(3, msec(1), SimTime{100000})});
  b.remove_marked({1, 0, 1});
  EXPECT_FALSE(b.readmit(make_task(2, msec(1), SimTime{100000})));  // pending
  EXPECT_TRUE(b.readmit(make_task(1, msec(1), SimTime{100000})));
  EXPECT_TRUE(b.readmit(make_task(3, msec(1), SimTime{100000})));
  EXPECT_EQ(b.size(), 3u);
}

TEST(BatchTest, RemovedIdsCanReappearAsNewTasks) {
  // After a task leaves the batch its id is free again (the driver never
  // reuses ids, but the container must not keep ghosts).
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

TEST(BatchTest, TotalProcessingSums) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime{1000000}),
                    make_task(2, msec(3), SimTime{1000000})});
  EXPECT_EQ(b.total_processing(), msec(5));
}

TEST(BatchTest, ClearEmptiesEverything) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime{1000000})});
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, ReadmitAfterPartialDelivery) {
  // A phase schedules {1,2,3}, the backend accepts only {1,3}: the pipeline
  // removes all three as scheduled, then readmits the refused task 2. The
  // batch must end with exactly the refused task pending, once.
  Batch b;
  const Task t1 = make_task(1, msec(1), SimTime{1000000});
  const Task t2 = make_task(2, msec(2), SimTime{1000000});
  const Task t3 = make_task(3, msec(3), SimTime{1000000});
  b.merge_arrivals({t1, t2, t3});
  b.remove_marked({1, 1, 1});
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.readmit(t2));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 2u);
  // A second refusal of the same task in a later phase is a no-op while the
  // first readmission is still pending.
  EXPECT_FALSE(b.readmit(t2));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, ReadmittedTaskMergesWithDuplicateIdArrival) {
  // The readmitted copy is already pending when an arrival with the same id
  // shows up: the merge must skip the duplicate (pending copy wins) and
  // report 1 merged task, and the id index must stay consistent — after the
  // pending copy is scheduled away, the id is admissible again.
  Batch b;
  const Task refused = make_task(7, msec(2), SimTime{1000000});
  EXPECT_TRUE(b.readmit(refused));
  const Task same_id = make_task(7, msec(9), SimTime{2000000});
  const Task fresh = make_task(8, msec(1), SimTime{2000000});
  EXPECT_EQ(b.merge_arrivals({same_id, fresh}), 1u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 7u);
  EXPECT_EQ(b.tasks()[0].processing, msec(2));  // the readmitted copy won
  b.remove_marked({1, 0});
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.readmit(refused));
  EXPECT_EQ(b.size(), 2u);
}

TEST(BatchTest, RemoveScheduledReadmitInterleaving) {
  // Several rounds of schedule-everything / readmit-the-refused must keep
  // the task set and the duplicate-detection index in lockstep.
  Batch b;
  std::vector<Task> all;
  for (TaskId id = 0; id < 6; ++id) {
    all.push_back(make_task(id, msec(1 + std::int64_t(id)), SimTime{5000000}));
  }
  b.merge_arrivals(all);
  for (int round = 0; round < 4; ++round) {
    // Schedule the whole batch...
    std::unordered_set<TaskId> scheduled;
    for (const Task& t : b.tasks()) scheduled.insert(t.id);
    b.remove_marked(std::vector<std::uint8_t>(b.size(), 1));
    EXPECT_TRUE(b.empty());
    // ...and readmit every other task, as a partial refusal would.
    std::size_t readmitted = 0;
    for (const Task& t : all) {
      if ((t.id + std::uint64_t(round)) % 2 == 0 && scheduled.count(t.id)) {
        EXPECT_TRUE(b.readmit(t));
        ++readmitted;
      }
    }
    EXPECT_EQ(b.size(), readmitted);
    all.assign(b.tasks().begin(), b.tasks().end());
  }
}

TEST(BatchTest, RemoveScheduledIgnoresAbsentIds) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{1000000})});
  b.remove_marked({1});  // 99 was culled elsewhere: never pending here
  EXPECT_TRUE(b.empty());
  // And the absent id did not poison the index.
  EXPECT_TRUE(b.readmit(make_task(99, msec(1), SimTime{1000000})));
}

TEST(BatchTest, CullMissedCompactsInOrderAndReleasesIds) {
  // Culled tasks come back in batch order, survivors keep theirs, and the
  // culled ids are unregistered, so readmit() re-inserts them.
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
  EXPECT_FALSE(b.readmit(make_task(2, msec(1), t0 + msec(50))));  // pending
  for (const Task& t : culled) EXPECT_TRUE(b.readmit(t));
  ASSERT_EQ(b.size(), 5u);
  EXPECT_EQ(b.tasks()[2].id, 1u);  // readmission appends
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
