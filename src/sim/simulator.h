// The simulated clock of the DES backend.
//
// This is the substrate that stands in for the paper's Intel Paragon. The
// machine model is analytical: machine::Cluster computes every start and
// end time when a schedule is delivered (FIFO ready queues of
// non-preemptable tasks, constant communication cost), so no event ever
// needs to fire. This clock orders deliveries against arrivals: the host's
// scheduling time and the waits for the next arrival move it forward, and
// it never goes backwards.
#pragma once

#include "common/time.h"

namespace rtds::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Moves the clock to `t`. Throws InvalidArgument if t < now().
  void advance_to(SimTime t);

 private:
  SimTime now_{SimTime::zero()};
};

}  // namespace rtds::sim
