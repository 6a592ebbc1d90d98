#include "sched/pipeline.h"

#include <chrono>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "tasks/batch.h"

namespace rtds::sched {

PhasePipeline::PhasePipeline(const PhaseAlgorithm& algorithm,
                             const QuantumPolicy& quantum,
                             PipelineConfig config)
    : algorithm_(algorithm), quantum_(quantum), config_(config) {
  RTDS_REQUIRE(config_.vertex_generation_cost > SimDuration::zero(),
               "PhasePipeline: vertex cost must be positive");
  RTDS_REQUIRE(!config_.phase_overhead.is_negative(),
               "PhasePipeline: negative phase overhead");
  RTDS_REQUIRE(!config_.delivery_backpressure.is_negative(),
               "PhasePipeline: negative delivery backpressure");
}

RunMetrics PhasePipeline::run(const std::vector<Task>& workload,
                              ExecutionBackend& backend,
                              PhaseObserver* observer,
                              TaskLedger* external_ledger) const {
  tasks::VectorArrivalSource source(workload);
  // Closed run == open run over the exhaustible vector source, with
  // admission control off and no latency accounting.
  return run_core(source, backend, StreamOptions{}, nullptr, observer,
                  external_ledger);
}

RunMetrics PhasePipeline::run_stream(tasks::ArrivalSource& source,
                                     ExecutionBackend& backend,
                                     const StreamOptions& options,
                                     StreamStats* stats,
                                     PhaseObserver* observer,
                                     TaskLedger* external_ledger) const {
  return run_core(source, backend, options, stats, observer, external_ledger);
}

RunMetrics PhasePipeline::run_core(tasks::ArrivalSource& source,
                                   ExecutionBackend& backend,
                                   const StreamOptions& options,
                                   StreamStats* stats,
                                   PhaseObserver* observer,
                                   TaskLedger* external_ledger) const {
  RunMetrics metrics;
  metrics.algorithm = algorithm_.name();

  const std::optional<SimTime> first_arrival = source.peek();
  if (!first_arrival.has_value()) {
    metrics.finish_time = backend.now();
    return metrics;
  }

  // Every run keeps a ledger — conservation is enforced, not opt-in.
  TaskLedger local_ledger;
  TaskLedger& ledger = external_ledger ? *external_ledger : local_ledger;
  backend.bind_ledger(&ledger);

  tasks::Batch batch;
  const SimDuration vcost = config_.vertex_generation_cost;
  const std::uint32_t num_workers = backend.num_workers();
  // Reused across phases: schedule_phase borrows it by const reference.
  std::vector<SimDuration> base_loads(num_workers);
  // Deliveries refused so far, per PENDING task: a task whose budget is
  // spent is retired as rejected instead of readmitted. Entries are erased
  // as tasks reach terminal states — under open arrivals this map would
  // otherwise grow with every task ever refused, for the whole run.
  std::unordered_map<tasks::TaskId, std::uint32_t> delivery_attempts;
  // Per-phase scratch, capacity retained across phases.
  std::vector<Task> arrived;
  std::vector<Task> culled_tasks;
  std::vector<machine::ScheduledAssignment> delivery;
  std::vector<std::uint8_t> retire;  // per batch position: leaves the batch

  // Nothing to do before the first arrival.
  backend.wait_until(*first_arrival);

  while (true) {
    const SimTime t = backend.now();

    // Form Batch(j): pull tasks that arrived up to now from the source
    // (through admission control), merge them, cull unreachable.
    arrived.clear();
    std::uint64_t admission_rejected_now = 0;
    while (true) {
      const std::optional<SimTime> next_arrival = source.peek();
      if (!next_arrival.has_value() || *next_arrival > t) break;
      Task task = source.next();
      ledger.arrive(task.id);
      metrics.total_tasks += 1;
      if (options.max_pending != 0 &&
          batch.size() + arrived.size() >= options.max_pending) {
        // Full house: turn the task away at the door. Rejecting the NEW
        // arrival (rather than evicting a pending task) keeps admission
        // decisions final — no admitted task is ever un-admitted.
        ledger.reject_admission(task.id);
        metrics.admission_rejected += 1;
        admission_rejected_now += 1;
        continue;
      }
      ledger.admit(task.id);
      arrived.push_back(std::move(task));
    }
    batch.merge_arrivals(arrived);
    batch.cull_missed(t, culled_tasks);
    for (const Task& task : culled_tasks) {
      ledger.cull(task.id);
      delivery_attempts.erase(task.id);  // culled == terminal
    }
    metrics.culled += culled_tasks.size();

    PhaseRecord record;
    record.algorithm = metrics.algorithm;
    record.index = metrics.phases;
    record.start = t;
    record.arrivals = arrived.size();
    record.culled = culled_tasks.size();
    record.admission_rejected = admission_rejected_now;
    record.batch_size = batch.size();

    if (batch.empty()) {
      const std::optional<SimTime> next_arrival = source.peek();
      if (!next_arrival.has_value()) break;  // pipeline drained
      // Sleep until the next arrival.
      backend.wait_until(*next_arrival);
      continue;
    }

    // Q_s(j) from the Fig. 3 criterion (or the fixed-quantum ablation).
    const SimDuration min_slack = batch.min_slack(t);
    RTDS_ASSERT_MSG(!min_slack.is_negative(),
                    "unreachable task survived culling");
    SimDuration min_load = SimDuration::max();
    for (std::uint32_t k = 0; k < num_workers; ++k) {
      min_load = min_duration(min_load, backend.load(k, t));
    }
    SimDuration quantum = quantum_.allocate(min_slack, min_load);
    // The quantum must cover the fixed per-phase overhead plus at least one
    // vertex generation, or the phase could make no progress. Raising it
    // can push Q_s past max_quantum and past the paper's
    // Q_s <= max(Min_Slack, Min_Load) bound, so the override is counted
    // and surfaced in the trace rather than applied silently.
    const SimDuration quantum_floor = config_.phase_overhead + vcost;
    const bool floor_override = quantum < quantum_floor;
    if (floor_override) {
      quantum = quantum_floor;
      metrics.quantum_floor_overrides += 1;
    }
    const std::uint64_t budget = static_cast<std::uint64_t>(
        (quantum - config_.phase_overhead) / vcost);

    // Worker loads as seen at the planned delivery time t_s + Q_s: the
    // workers drain previous schedules while this phase runs (Sec. 4.4).
    const SimTime planned_delivery = t + quantum;
    for (std::uint32_t k = 0; k < num_workers; ++k) {
      const SimDuration load = backend.load(k, t);
      base_loads[k] =
          load <= quantum ? SimDuration::zero() : load - quantum;
    }

    const auto search_start = std::chrono::steady_clock::now();
    const SearchResult result = algorithm_.schedule_phase(
        batch.tasks(), base_loads, planned_delivery, backend.interconnect(),
        budget);
    const auto search_wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - search_start)
            .count());
    metrics.search_wall_ns += search_wall_ns;

    // The host was busy for the vertices it generated plus the fixed
    // turnover/delivery overhead.
    SimDuration spent = vcost * std::int64_t(result.stats.vertices_generated);
    if (spent.is_zero()) spent = vcost;  // defensive: always advance time
    spent += config_.phase_overhead;
    RTDS_ASSERT(spent <= quantum);
    const SimTime phase_end = t + spent;

    metrics.phases += 1;
    metrics.vertices_generated += result.stats.vertices_generated;
    metrics.expansions += result.stats.expansions;
    metrics.backtracks += result.stats.backtracks;
    metrics.dead_ends += result.stats.dead_end ? 1 : 0;
    metrics.leaves += result.stats.reached_leaf ? 1 : 0;
    metrics.budget_exhaustions += result.stats.budget_exhausted ? 1 : 0;
    metrics.scheduling_time += spent;
    metrics.allocated_quantum += quantum;
    metrics.min_quantum_seen = min_duration(metrics.min_quantum_seen, quantum);
    metrics.max_quantum_seen = max_duration(metrics.max_quantum_seen, quantum);

    // Materialize S_j against the batch snapshot and mark the scheduled
    // tasks' batch positions for retirement. They leave the batch only
    // after deliver() reports which of them the backend actually accepted
    // — a refused assignment must not disappear.
    delivery.clear();
    retire.assign(batch.size(), 0);
    for (const search::Assignment& a : result.schedule) {
      const Task& task = batch.tasks()[a.task_index];
      delivery.push_back({task, a.worker});
      retire[a.task_index] = 1;
      ledger.schedule(task.id);
    }

    // Charge the host time, then deliver S_j at t_e and start phase j+1.
    backend.advance(spent);
    const DeliveryResult delivered = backend.deliver(delivery);
    metrics.scheduled += delivered.accepted;
    metrics.overflow_drops += delivered.undelivered.size();

    // Retire from the batch exactly the tasks that left the pipeline:
    // accepted deliveries and tasks whose delivery budget is spent. A
    // refused task with attempts remaining stays pending — that is the
    // readmission path — so a later phase schedules it again. Only a phase
    // with refused deliveries builds this map (id -> readmitted).
    std::unordered_map<tasks::TaskId, bool> refusals;
    std::uint64_t readmitted_now = 0;
    std::uint64_t rejected_now = 0;
    SimDuration min_refused_load = SimDuration::max();
    for (const machine::ScheduledAssignment& refused :
         delivered.undelivered) {
      const std::uint32_t attempts = ++delivery_attempts[refused.task.id];
      if (config_.max_delivery_attempts != 0 &&
          attempts >= config_.max_delivery_attempts) {
        delivery_attempts.erase(refused.task.id);  // rejected == terminal
        ledger.reject(refused.task.id);
        metrics.rejected += 1;
        rejected_now += 1;
        refusals.emplace(refused.task.id, false);  // leaves for good
        continue;
      }
      ledger.drop(refused.task.id);
      refusals.emplace(refused.task.id, true);  // stays pending
      metrics.readmissions += 1;
      readmitted_now += 1;
      min_refused_load = min_duration(
          min_refused_load, backend.load(refused.worker, backend.now()));
    }
    // Everything scheduled this phase that was neither readmitted nor
    // rejected was accepted by the backend. The accepted deliveries are
    // where schedule latency is measured: the clock now reads t_e, the
    // instant S_j landed in the worker ready queues. A readmitted task is
    // un-marked: it keeps its batch position.
    for (std::size_t i = 0; i < delivery.size(); ++i) {
      const machine::ScheduledAssignment& accepted = delivery[i];
      if (!refusals.empty()) {
        const auto it = refusals.find(accepted.task.id);
        if (it != refusals.end()) {
          if (it->second) retire[result.schedule[i].task_index] = 0;
          continue;
        }
      }
      ledger.deliver(accepted.task.id);
      delivery_attempts.erase(accepted.task.id);  // delivered == terminal
      if (stats != nullptr) {
        stats->schedule_latency.add(
            double((backend.now() - accepted.task.arrival).us));
      }
    }
    batch.remove_marked(retire);

    if (observer != nullptr) {
      record.end = phase_end;
      record.min_slack = min_slack;
      record.min_load = min_load;
      record.quantum = quantum;
      record.vertex_budget = budget;
      record.quantum_floor_override = floor_override;
      record.search = result.stats;
      record.search_wall_ns = search_wall_ns;
      record.scheduled = result.schedule.size();
      record.delivered = delivered.accepted;
      record.overflow_drops = delivered.undelivered.size();
      record.readmitted = readmitted_now;
      record.rejected = rejected_now;
      observer->on_phase(record);
    }

    // Backpressure: when delivery was refused, pause before rescheduling so
    // the saturated workers drain instead of the host burning the refused
    // tasks' delivery budgets in a hot loop. Wait at least the configured
    // floor, at most until the least-loaded refused worker would be idle,
    // and never longer than the batch's min slack (waiting must not by
    // itself make a pending task unreachable).
    if (readmitted_now > 0 && !config_.delivery_backpressure.is_zero()) {
      // Floor first, slack cap last: the cap is the safety bound and must
      // win when the configured floor exceeds the batch's min slack.
      SimDuration pause =
          max_duration(min_refused_load, config_.delivery_backpressure);
      if (!batch.empty()) {
        pause = min_duration(pause, batch.min_slack(backend.now()));
      }
      backend.wait_until(backend.now() + pause);
      metrics.backpressure_waits += 1;
    }
  }

  const BackendStats finals = backend.drain();
  backend.bind_ledger(nullptr);
  metrics.deadline_hits = finals.deadline_hits;
  metrics.exec_misses = finals.exec_misses;
  metrics.finish_time = finals.finish_time;
  RTDS_ASSERT(metrics.scheduled ==
              metrics.deadline_hits + metrics.exec_misses);

  // Task conservation: every offered task is in exactly one terminal state
  // and the ledger agrees with the aggregate metrics.
  RTDS_CHECK_MSG(delivery_attempts.empty(),
                 "delivery_attempts retained entries for terminal tasks at "
                 "drain (leak under open arrivals)");
  ledger.check_conserved();
  const LedgerCounts& counts = ledger.counts();
  RTDS_ASSERT(counts.total == metrics.total_tasks);
  RTDS_ASSERT(counts.deadline_hits == metrics.deadline_hits);
  RTDS_ASSERT(counts.exec_misses == metrics.exec_misses);
  RTDS_ASSERT(counts.culled == metrics.culled);
  RTDS_ASSERT(counts.rejected == metrics.rejected);
  RTDS_ASSERT(counts.admission_rejected == metrics.admission_rejected);
  RTDS_ASSERT(metrics.total_tasks ==
              metrics.deadline_hits + metrics.exec_misses + metrics.culled +
                  metrics.rejected + metrics.admission_rejected);
  return metrics;
}

}  // namespace rtds::sched
