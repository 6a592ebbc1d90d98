// Deterministic delivery-refusal fault injection.
//
// FaultInjectingBackend decorates any ExecutionBackend and refuses every
// Nth assignment handed to deliver(), regardless of what the inner backend
// would have done. Refusals are exactly what a bounded mailbox produces
// under overload, so the pipeline's readmission / rejection / backpressure
// machinery is driven through the SAME code paths — but deterministically,
// on every backend including the DES ones, which makes the resulting runs
// replayable bit-for-bit from a scenario token (a real threaded overflow
// depends on wall-clock races and is not).
//
// The decorator forwards everything else untouched, so wrapping two
// SimBackends with the same period keeps them in exact metric parity: both
// see the identical refusal sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/backend.h"

namespace rtds::testing {

class FaultInjectingBackend final : public sched::ExecutionBackend {
 public:
  /// Refuses every `refusal_period`-th assignment (counted across the whole
  /// run); 0 disables injection. The inner backend must outlive this.
  FaultInjectingBackend(sched::ExecutionBackend& inner,
                        std::uint32_t refusal_period)
      : inner_(inner), refusal_period_(refusal_period) {}

  [[nodiscard]] std::uint32_t num_workers() const override {
    return inner_.num_workers();
  }
  [[nodiscard]] const machine::Interconnect& interconnect() const override {
    return inner_.interconnect();
  }
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] SimDuration load(std::uint32_t worker,
                                 SimTime t) const override {
    return inner_.load(worker, t);
  }
  void wait_until(SimTime t) override { inner_.wait_until(t); }
  void advance(SimDuration host_busy) override { inner_.advance(host_busy); }

  sched::DeliveryResult deliver(
      const std::vector<machine::ScheduledAssignment>& schedule) override {
    if (refusal_period_ == 0) return inner_.deliver(schedule);
    std::vector<machine::ScheduledAssignment> pass;
    sched::DeliveryResult out;
    pass.reserve(schedule.size());
    for (const machine::ScheduledAssignment& sa : schedule) {
      if (++delivery_counter_ % refusal_period_ == 0) {
        out.undelivered.push_back(sa);
        ++injected_refusals_;
      } else {
        pass.push_back(sa);
      }
    }
    sched::DeliveryResult inner_result = inner_.deliver(pass);
    out.accepted = inner_result.accepted;
    for (machine::ScheduledAssignment& sa : inner_result.undelivered) {
      out.undelivered.push_back(std::move(sa));
    }
    return out;
  }

  sched::BackendStats drain() override { return inner_.drain(); }
  void bind_ledger(sched::TaskLedger* ledger) override {
    inner_.bind_ledger(ledger);
  }

  [[nodiscard]] std::uint64_t injected_refusals() const {
    return injected_refusals_;
  }

 private:
  sched::ExecutionBackend& inner_;
  std::uint32_t refusal_period_;
  std::uint64_t delivery_counter_{0};
  std::uint64_t injected_refusals_{0};
};

}  // namespace rtds::testing
