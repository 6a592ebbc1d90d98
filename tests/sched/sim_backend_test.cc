// SimBackend's clock: the pipeline moves simulated time only through
// wait_until() and advance(), and drain() reports when all delivered work
// finishes. The machine model computes start and end times at delivery, so
// drain() fires nothing; it only reads the cluster.
#include "sched/backend.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sim/simulator.h"

namespace rtds::sched {
namespace {

struct Fixture {
  Fixture()
      : cluster(2, machine::Interconnect::cut_through(2, SimDuration::zero())) {
  }
  machine::Cluster cluster;
  sim::Simulator sim;
  SimBackend backend{cluster, sim};
};

machine::ScheduledAssignment assignment(std::uint32_t id, SimDuration p,
                                        std::uint32_t worker) {
  tasks::Task t;
  t.id = id;
  t.processing = p;
  t.deadline = SimTime::zero() + sec(10);
  t.affinity = tasks::AffinitySet::all(2);
  return machine::ScheduledAssignment{t, worker};
}

TEST(SimBackendTest, WaitUntilPastOrPresentIsANoOp) {
  Fixture f;
  f.backend.wait_until(SimTime::zero() + msec(5));
  ASSERT_EQ(f.backend.now(), SimTime::zero() + msec(5));
  f.backend.wait_until(SimTime::zero() + msec(5));
  EXPECT_EQ(f.backend.now(), SimTime::zero() + msec(5));
  f.backend.wait_until(SimTime::zero() + msec(1));
  EXPECT_EQ(f.backend.now(), SimTime::zero() + msec(5));
  EXPECT_EQ(f.sim.now(), f.backend.now());
}

TEST(SimBackendTest, AdvanceMovesTheClockByExactlyTheCharge) {
  Fixture f;
  f.backend.advance(usec(37));
  EXPECT_EQ(f.backend.now(), SimTime::zero() + usec(37));
  f.backend.advance(SimDuration::zero());
  EXPECT_EQ(f.backend.now(), SimTime::zero() + usec(37));
  f.backend.advance(msec(2));
  EXPECT_EQ(f.backend.now(), SimTime::zero() + usec(37) + msec(2));
}

TEST(SimBackendTest, ClockNeverGoesBack) {
  Fixture f;
  SimTime last = f.backend.now();
  const SimDuration steps[] = {usec(10), usec(0), msec(3), usec(1)};
  for (const SimDuration d : steps) {
    f.backend.advance(d);
    EXPECT_GE(f.backend.now(), last);
    last = f.backend.now();
    f.backend.wait_until(SimTime::zero());
    EXPECT_EQ(f.backend.now(), last);
    f.backend.wait_until(last + d);
    EXPECT_GE(f.backend.now(), last);
    last = f.backend.now();
  }
  EXPECT_THROW(f.backend.advance(usec(-1)), InvalidArgument);
  EXPECT_EQ(f.backend.now(), last);
}

TEST(SimBackendTest, DrainReportsMakespanWhenWorkOutlastsTheClock) {
  Fixture f;
  f.backend.advance(msec(1));
  EXPECT_EQ(f.backend.deliver({assignment(1, msec(4), 0),
                               assignment(2, msec(6), 1)})
                .accepted,
            2u);
  const BackendStats stats = f.backend.drain();
  EXPECT_EQ(f.cluster.makespan(), SimTime::zero() + msec(7));
  EXPECT_EQ(stats.finish_time, f.cluster.makespan());
  EXPECT_EQ(stats.deadline_hits, 2u);
  EXPECT_EQ(stats.exec_misses, 0u);
  // Draining does not run the clock forward to the makespan.
  EXPECT_EQ(f.backend.now(), SimTime::zero() + msec(1));
}

TEST(SimBackendTest, DrainReportsNowWhenTheClockOutlastsTheWork) {
  Fixture f;
  f.backend.deliver({assignment(1, msec(2), 0)});
  f.backend.wait_until(SimTime::zero() + msec(9));
  const BackendStats stats = f.backend.drain();
  EXPECT_EQ(f.cluster.makespan(), SimTime::zero() + msec(2));
  EXPECT_EQ(stats.finish_time, SimTime::zero() + msec(9));
}

}  // namespace
}  // namespace rtds::sched
