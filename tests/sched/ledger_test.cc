#include "sched/ledger.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/error.h"

namespace rtds::sched {
namespace {

TEST(TaskLedgerTest, FullLifecycleToDeadlineHit) {
  TaskLedger ledger;
  ledger.arrive(1);
  EXPECT_EQ(ledger.state(1), TaskState::kArrived);
  ledger.admit(1);
  ledger.schedule(1);
  ledger.deliver(1);
  ledger.execute(1, /*hit=*/true);
  EXPECT_EQ(ledger.state(1), TaskState::kDeadlineHit);
  EXPECT_TRUE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().deadline_hits, 1u);
}

TEST(TaskLedgerTest, DropReturnsTaskToBatchedForAnotherRound) {
  TaskLedger ledger;
  ledger.arrive(7);
  ledger.admit(7);
  ledger.schedule(7);
  ledger.drop(7);  // delivery refused: readmitted
  EXPECT_EQ(ledger.state(7), TaskState::kBatched);
  ledger.schedule(7);
  ledger.deliver(7);
  ledger.execute(7, /*hit=*/false);
  EXPECT_EQ(ledger.state(7), TaskState::kExecMiss);
  EXPECT_TRUE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().exec_misses, 1u);
}

TEST(TaskLedgerTest, CullAndRejectAreTerminal) {
  TaskLedger ledger;
  ledger.arrive(1);
  ledger.admit(1);
  ledger.cull(1);
  ledger.arrive(2);
  ledger.admit(2);
  ledger.schedule(2);
  ledger.reject(2);
  EXPECT_EQ(ledger.state(1), TaskState::kCulled);
  EXPECT_EQ(ledger.state(2), TaskState::kRejected);
  const LedgerCounts& c = ledger.counts();
  EXPECT_TRUE(c.conserved());
  EXPECT_EQ(c.culled, 1u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.total, 2u);
}

TEST(TaskLedgerTest, IllegalTransitionsThrow) {
  TaskLedger ledger;
  ledger.arrive(1);
  EXPECT_THROW(ledger.schedule(1), InvariantViolation);  // not batched yet
  ledger.admit(1);
  EXPECT_THROW(ledger.deliver(1), InvariantViolation);   // not scheduled
  EXPECT_THROW(ledger.execute(1, true), InvariantViolation);
  ledger.schedule(1);
  ledger.deliver(1);
  ledger.execute(1, true);
  EXPECT_THROW(ledger.execute(1, true), InvariantViolation);  // double count
  EXPECT_THROW(ledger.arrive(1), InvariantViolation);         // re-offered
  EXPECT_THROW(ledger.admit(99), InvariantViolation);         // unknown id
}

TEST(TaskLedgerTest, ConservationCheckFlagsInFlightTasks) {
  TaskLedger ledger;
  ledger.arrive(1);
  ledger.admit(1);
  EXPECT_FALSE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().in_flight, 1u);
  EXPECT_THROW(ledger.check_conserved(), InvariantViolation);
  ledger.cull(1);
  ledger.check_conserved();  // no throw
}

TEST(TaskLedgerTest, ClearResets) {
  TaskLedger ledger;
  ledger.arrive(1);
  ledger.clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_FALSE(ledger.known(1));
  EXPECT_EQ(ledger.counts().total, 0u);
  EXPECT_TRUE(ledger.counts().conserved());  // vacuously
}

TEST(TaskLedgerTest, ExtremeIdsAreOrdinaryKeys) {
  TaskLedger ledger;
  EXPECT_FALSE(ledger.known(0));
  ledger.arrive(0);
  ledger.arrive(0xFFFFFFFFu);
  EXPECT_TRUE(ledger.known(0));
  EXPECT_TRUE(ledger.known(0xFFFFFFFFu));
  EXPECT_FALSE(ledger.known(1));
  ledger.admit(0xFFFFFFFFu);
  EXPECT_EQ(ledger.state(0), TaskState::kArrived);
  EXPECT_EQ(ledger.state(0xFFFFFFFFu), TaskState::kBatched);
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(TaskLedgerTest, StatesSurviveManyGrowths) {
  // 10^5 ids, some consecutive and some strided by a power of two, take
  // the table from 16 slots through many doublings. Every state must be
  // where it was left.
  constexpr std::uint32_t kTasks = 100000;
  const auto id_of = [](std::uint32_t i) {
    return i % 2 == 0 ? i : (i << 12) | 1u;
  };
  TaskLedger ledger;
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    const tasks::TaskId id = id_of(i);
    ledger.arrive(id);
    switch (i % 4) {
      case 0: break;
      case 1: ledger.admit(id); break;
      case 2: ledger.admit(id); ledger.schedule(id); break;
      case 3: ledger.admit(id); ledger.cull(id); break;
    }
  }
  EXPECT_EQ(ledger.size(), kTasks);
  EXPECT_EQ(ledger.counts().total, kTasks);
  EXPECT_EQ(ledger.counts().culled, kTasks / 4);
  constexpr TaskState kExpected[] = {TaskState::kArrived, TaskState::kBatched,
                                     TaskState::kScheduled, TaskState::kCulled};
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(ledger.state(id_of(i)), kExpected[i % 4]) << "index " << i;
  }
  EXPECT_FALSE(ledger.known(3));  // odd ids below 4096 never arrived
}

TEST(TaskLedgerTest, DuplicateArriveThrowsAndChangesNothing) {
  TaskLedger ledger;
  ledger.arrive(5);
  ledger.admit(5);
  EXPECT_THROW(ledger.arrive(5), InvariantViolation);
  EXPECT_EQ(ledger.state(5), TaskState::kBatched);
  EXPECT_EQ(ledger.size(), 1u);
  EXPECT_EQ(ledger.counts().total, 1u);
  EXPECT_EQ(ledger.counts().in_flight, 1u);
}

TEST(TaskLedgerTest, TransitionOnUnknownIdThrows) {
  TaskLedger empty;  // no table yet
  EXPECT_THROW(empty.admit(1), InvariantViolation);
  EXPECT_THROW(static_cast<void>(empty.state(1)), InvariantViolation);
  TaskLedger ledger;
  for (tasks::TaskId id = 0; id < 100; ++id) ledger.arrive(id);
  EXPECT_THROW(ledger.admit(100), InvariantViolation);
  EXPECT_THROW(ledger.schedule(1000), InvariantViolation);
  EXPECT_THROW(ledger.deliver(0xFFFFFFFFu), InvariantViolation);
  EXPECT_THROW(ledger.cull(12345), InvariantViolation);
  EXPECT_THROW(ledger.reject_admission(101), InvariantViolation);
  EXPECT_THROW(ledger.execute(102, true), InvariantViolation);
  EXPECT_THROW(static_cast<void>(ledger.state(100)), InvariantViolation);
  EXPECT_EQ(ledger.size(), 100u);
}

TEST(TaskLedgerTest, StateNamesAreStable) {
  EXPECT_STREQ(to_string(TaskState::kRejected), "rejected");
  EXPECT_STREQ(to_string(TaskState::kDeadlineHit), "deadline_hit");
}

}  // namespace
}  // namespace rtds::sched
