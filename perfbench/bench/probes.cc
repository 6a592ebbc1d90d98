#include "probes.h"

#include <ostream>

#include "search/partial_schedule.h"

namespace perfbench {

using namespace rtds;

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "sched.run";
    case SpanKind::kSetup: return "setup.seed";
    case SpanKind::kDbBuild: return "db.build";
    case SpanKind::kDbTxnGen: return "db.txn_gen";
    case SpanKind::kDbToTasks: return "db.to_tasks";
    case SpanKind::kSearchPhase: return "search.phase";
    case SpanKind::kSearchOrder: return "search.order";
    case SpanKind::kSearchSetup: return "search.setup";
    case SpanKind::kQuantum: return "sched.quantum";
    case SpanKind::kLoad: return "machine.load";
    case SpanKind::kDeliver: return "machine.deliver";
    case SpanKind::kAdvance: return "sim.advance";
    case SpanKind::kWaitUntil: return "sim.wait_until";
    case SpanKind::kDrain: return "sim.drain";
    case SpanKind::kSourcePeek: return "tasks.source_peek";
    case SpanKind::kSourceNext: return "tasks.source_next";
    case SpanKind::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  log_.reserve(capacity_);
}

void Tracer::open(SpanKind kind, std::uint64_t run_id) {
  run_id_ = run_id;
  phase_ = 0;
  open_kind_ = kind;
  open_start_ns_ = now_ns();
  if (log_.size() < capacity_) {
    open_index_ = static_cast<std::int32_t>(log_.size());
    log_.push_back({open_start_ns_, 0, run_id_, -1, 0, kind});
  } else {
    open_index_ = -1;
    ++dropped_;
  }
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  total_ns_[std::size_t(open_kind_)] += end - open_start_ns_;
  calls_[std::size_t(open_kind_)] += 1;
  if (open_index_ >= 0) log_[std::size_t(open_index_)].end_ns = end;
  open_index_ = -1;
}

void Tracer::record(SpanKind kind, std::uint64_t start_ns,
                    std::uint64_t end_ns) {
  total_ns_[std::size_t(kind)] += end_ns - start_ns;
  calls_[std::size_t(kind)] += 1;
  if (log_.size() < capacity_) {
    log_.push_back({start_ns, end_ns, run_id_, open_index_, phase_, kind});
  } else {
    ++dropped_;
  }
}

void Tracer::write_csv(std::ostream& os) const {
  os << "id,name,start_ns,end_ns,parent,run_id,phase\n";
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Span& s = log_[i];
    os << i << ',' << span_name(s.kind) << ',' << s.start_ns << ','
       << s.end_ns << ',' << s.parent << ',' << s.run_id << ',' << s.phase
       << '\n';
  }
}

TracedAlgorithm::TracedAlgorithm(const sched::PhaseAlgorithm& inner,
                                 std::optional<search::TaskOrder> order,
                                 Tracer& tracer)
    : inner_(inner), order_(order), tracer_(tracer) {}

search::SearchResult TracedAlgorithm::schedule_phase(
    const std::vector<tasks::Task>& batch,
    const std::vector<SimDuration>& base_loads, SimTime delivery_time,
    const machine::Interconnect& net, std::uint64_t vertex_budget) const {
  const std::uint64_t start = now_ns();
  search::SearchResult result = inner_.schedule_phase(
      batch, base_loads, delivery_time, net, vertex_budget);
  tracer_.record(SpanKind::kSearchPhase, start, now_ns());
  tracer_.assignments += result.schedule.size();
  // Replays of SearchEngine::run's preamble (no ordering pass for
  // kBatchOrder, then the PartialSchedule snapshot of the batch). They run
  // after the real search so it meets the caches exactly as an untraced
  // run does; the replays then find the batch warm, so they time the
  // steps' own work and expansion (search.phase minus replays) keeps the
  // cold-cache cost of touching the batch.
  if (order_.has_value() && !batch.empty() && vertex_budget != 0) {
    const std::uint64_t t0 = now_ns();
    const std::uint32_t* order = nullptr;
    if (*order_ != search::TaskOrder::kBatchOrder) {
      search::task_consideration_order_into(batch, *order_, order_scratch_);
      order = order_scratch_.data();
    }
    const std::uint64_t t1 = now_ns();
    search::PartialSchedule ps(&batch, base_loads, delivery_time, &net);
    ps.set_consideration_order(order);
    const std::uint64_t t2 = now_ns();
    tracer_.record(SpanKind::kSearchOrder, t0, t1);
    tracer_.record(SpanKind::kSearchSetup, t1, t2);
  }
  return result;
}

SimDuration TracedQuantum::allocate(SimDuration min_slack,
                                    SimDuration min_load) const {
  const std::uint64_t t0 = now_ns();
  const SimDuration q = inner_.allocate(min_slack, min_load);
  tracer_.record(SpanKind::kQuantum, t0, now_ns());
  return q;
}

SimDuration TracedBackend::load(std::uint32_t worker, SimTime t) const {
  const std::uint64_t t0 = now_ns();
  const SimDuration l = inner_.load(worker, t);
  tracer_.record(SpanKind::kLoad, t0, now_ns());
  return l;
}

void TracedBackend::wait_until(SimTime t) {
  const std::uint64_t t0 = now_ns();
  inner_.wait_until(t);
  tracer_.record(SpanKind::kWaitUntil, t0, now_ns());
}

void TracedBackend::advance(SimDuration host_busy) {
  const std::uint64_t t0 = now_ns();
  inner_.advance(host_busy);
  tracer_.record(SpanKind::kAdvance, t0, now_ns());
}

sched::DeliveryResult TracedBackend::deliver(
    const std::vector<machine::ScheduledAssignment>& schedule) {
  const std::uint64_t t0 = now_ns();
  sched::DeliveryResult r = inner_.deliver(schedule);
  tracer_.record(SpanKind::kDeliver, t0, now_ns());
  return r;
}

sched::BackendStats TracedBackend::drain() {
  const std::uint64_t t0 = now_ns();
  const sched::BackendStats s = inner_.drain();
  tracer_.record(SpanKind::kDrain, t0, now_ns());
  return s;
}

std::optional<SimTime> TracedSource::peek() {
  const std::uint64_t t0 = now_ns();
  const std::optional<SimTime> t = inner_.peek();
  tracer_.record(SpanKind::kSourcePeek, t0, now_ns());
  return t;
}

tasks::Task TracedSource::next() {
  const std::uint64_t t0 = now_ns();
  tasks::Task task = inner_.next();
  tracer_.record(SpanKind::kSourceNext, t0, now_ns());
  return task;
}

}  // namespace perfbench
