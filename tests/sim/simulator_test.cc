#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace rtds::sim {
namespace {

TEST(SimulatorTest, StartsAtZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST(SimulatorTest, RejectsPastScheduling) {
  Simulator sim;
  sim.advance_to(SimTime{10});
  EXPECT_THROW(sim.advance_to(SimTime{9}), InvalidArgument);
  EXPECT_THROW(sim.advance_to(SimTime{-1}), InvalidArgument);
  EXPECT_EQ(sim.now(), SimTime{10});  // a rejected target leaves the clock
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.advance_to(SimTime{500});
  EXPECT_EQ(sim.now(), SimTime{500});
  EXPECT_THROW(sim.advance_to(SimTime{400}), InvalidArgument);
}

}  // namespace
}  // namespace rtds::sim
