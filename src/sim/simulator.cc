#include "sim/simulator.h"

#include "common/error.h"

namespace rtds::sim {

void Simulator::advance_to(SimTime t) {
  RTDS_REQUIRE(t >= now_, "advance_to: target time in the past");
  now_ = t;
}

}  // namespace rtds::sim
