// Traced-run instrumentation: spans recorded around the calls the phase
// pipeline makes into each layer's public interfaces.
//
// Every probe lives in the benchmark, not in the program. The pipeline is
// handed decorators of its own seams (PhaseAlgorithm, QuantumPolicy,
// ExecutionBackend, ArrivalSource) that time each forwarded call; setup
// times the db calls directly. Two replay probes split search setup from
// expansion without touching the engine: before each phase's search the
// algorithm decorator re-runs task_consideration_order_into and the
// PartialSchedule constructor on the same batch snapshot. Replays are
// extra work on copies, so the decorated run must produce RunMetrics
// bit-identical to an undecorated one; the benchmark checks that on every
// traced run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "sched/algorithm.h"
#include "sched/backend.h"
#include "sched/quantum.h"
#include "search/engine.h"
#include "tasks/arrival_source.h"

namespace perfbench {

/// Span names. A span's layer is the module whose interface it times.
enum class SpanKind : std::uint8_t {
  kRun,           // sched: one whole PhasePipeline run (parent of the rest)
  kSetup,         // one seed's input construction (parent of the db spans)
  kDbBuild,       // db::GlobalDatabase constructor
  kDbTxnGen,      // db::generate_transactions
  kDbToTasks,     // db::to_tasks
  kSearchPhase,   // PhaseAlgorithm::schedule_phase (the real search)
  kSearchOrder,   // replay: task_consideration_order_into
  kSearchSetup,   // replay: PartialSchedule construction
  kQuantum,       // QuantumPolicy::allocate
  kLoad,          // ExecutionBackend::load -> machine::Cluster::load
  kDeliver,       // ExecutionBackend::deliver -> machine::Cluster::deliver
  kAdvance,       // ExecutionBackend::advance -> sim::Simulator::run_until
  kWaitUntil,     // ExecutionBackend::wait_until -> sim::Simulator::run_until
  kDrain,         // ExecutionBackend::drain -> sim::Simulator::run
  kSourcePeek,    // ArrivalSource::peek
  kSourceNext,    // ArrivalSource::next
  kCount
};

const char* span_name(SpanKind kind);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// In-memory span log plus per-kind totals. The totals cover every span;
/// the log keeps the first `capacity` spans so a long traced run stays
/// bounded in memory, and is written out once, at exit.
class Tracer {
 public:
  struct Span {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t run_id;  // the seed of the run the span belongs to
    std::int32_t parent;   // log index of the enclosing span, -1 for none
    std::uint32_t phase;   // pipeline phase index within the run
    SpanKind kind;
  };

  explicit Tracer(std::size_t capacity);

  /// Opens a parent span (a run or a setup); children recorded until
  /// close() hang off it.
  void open(SpanKind kind, std::uint64_t run_id);
  void close();

  void record(SpanKind kind, std::uint64_t start_ns, std::uint64_t end_ns);
  /// Phase index stamped on subsequent spans (the observer advances it).
  void set_phase(std::uint32_t phase) { phase_ = phase; }

  [[nodiscard]] std::uint64_t total_ns(SpanKind kind) const {
    return total_ns_[std::size_t(kind)];
  }
  [[nodiscard]] std::uint64_t calls(SpanKind kind) const {
    return calls_[std::size_t(kind)];
  }
  [[nodiscard]] std::size_t logged() const { return log_.size(); }
  /// Assignments the traced searches returned (for search.useful_ratio).
  std::uint64_t assignments{0};
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// CSV: id,name,start_ns,end_ns,parent,run_id,phase.
  void write_csv(std::ostream& os) const;

 private:
  std::size_t capacity_;
  std::vector<Span> log_;
  std::uint64_t dropped_{0};
  std::array<std::uint64_t, std::size_t(SpanKind::kCount)> total_ns_{};
  std::array<std::uint64_t, std::size_t(SpanKind::kCount)> calls_{};
  std::int32_t open_index_{-1};
  std::uint64_t open_start_ns_{0};
  SpanKind open_kind_{SpanKind::kRun};
  std::uint64_t run_id_{0};
  std::uint32_t phase_{0};
};

/// Times schedule_phase and replays the search's own setup on the batch.
class TracedAlgorithm final : public rtds::sched::PhaseAlgorithm {
 public:
  /// `order` is the consideration order the wrapped search uses; nullopt
  /// for algorithms with no search setup to replay.
  TracedAlgorithm(const rtds::sched::PhaseAlgorithm& inner,
                  std::optional<rtds::search::TaskOrder> order,
                  Tracer& tracer);

  [[nodiscard]] rtds::search::SearchResult schedule_phase(
      const std::vector<rtds::tasks::Task>& batch,
      const std::vector<rtds::SimDuration>& base_loads,
      rtds::SimTime delivery_time, const rtds::machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::uint32_t threads() const override {
    return inner_.threads();
  }

 private:
  const rtds::sched::PhaseAlgorithm& inner_;
  std::optional<rtds::search::TaskOrder> order_;
  Tracer& tracer_;
  mutable std::vector<std::uint32_t> order_scratch_;
};

class TracedQuantum final : public rtds::sched::QuantumPolicy {
 public:
  TracedQuantum(const rtds::sched::QuantumPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] rtds::SimDuration allocate(
      rtds::SimDuration min_slack, rtds::SimDuration min_load) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const rtds::sched::QuantumPolicy& inner_;
  Tracer& tracer_;
};

/// Forwards to a SimBackend. now(), num_workers(), interconnect() and
/// bind_ledger() are plain accessors and stay untimed (their cost is
/// counted in the pipeline's own self time).
class TracedBackend final : public rtds::sched::ExecutionBackend {
 public:
  TracedBackend(rtds::sched::ExecutionBackend& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::uint32_t num_workers() const override {
    return inner_.num_workers();
  }
  [[nodiscard]] const rtds::machine::Interconnect& interconnect()
      const override {
    return inner_.interconnect();
  }
  [[nodiscard]] rtds::SimTime now() const override { return inner_.now(); }
  [[nodiscard]] rtds::SimDuration load(std::uint32_t worker,
                                       rtds::SimTime t) const override;
  void wait_until(rtds::SimTime t) override;
  void advance(rtds::SimDuration host_busy) override;
  rtds::sched::DeliveryResult deliver(
      const std::vector<rtds::machine::ScheduledAssignment>& schedule)
      override;
  rtds::sched::BackendStats drain() override;
  void bind_ledger(rtds::sched::TaskLedger* ledger) override {
    inner_.bind_ledger(ledger);
  }

 private:
  rtds::sched::ExecutionBackend& inner_;
  Tracer& tracer_;
};

class TracedSource final : public rtds::tasks::ArrivalSource {
 public:
  TracedSource(rtds::tasks::ArrivalSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] std::optional<rtds::SimTime> peek() override;
  rtds::tasks::Task next() override;

 private:
  rtds::tasks::ArrivalSource& inner_;
  Tracer& tracer_;
};

}  // namespace perfbench
