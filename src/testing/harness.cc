#include "testing/harness.h"

#include <memory>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "runtime/threaded_backend.h"
#include "sched/backend.h"
#include "sched/partitioned.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "testing/fault_injection.h"

namespace rtds::testing {
namespace {

std::unique_ptr<sched::PhaseAlgorithm> make_algorithm(const Scenario& s) {
  // A malformed spec throws InvalidArgument, which run_scenario surfaces as
  // a harness violation — a fuzz token naming a bad algorithm fails loudly.
  return sched::AlgorithmRegistry::builtin().make(s.algo_spec);
}

std::unique_ptr<sched::QuantumPolicy> make_quantum(const Scenario& s) {
  if (s.quantum_kind == 1) {
    return sched::make_fixed_quantum(usec(s.fixed_quantum_us));
  }
  return sched::make_self_adjusting_quantum(usec(s.min_quantum_us),
                                            usec(s.max_quantum_us));
}

sched::PipelineConfig pipeline_config(const Scenario& s, bool threaded) {
  sched::PipelineConfig cfg;
  cfg.vertex_generation_cost = usec(s.vertex_cost_us);
  // The threaded backend pays its per-phase cost in real wall time; charging
  // a synthetic overhead on top would double-count it (see pipeline.h).
  cfg.phase_overhead =
      threaded ? SimDuration::zero() : usec(s.phase_overhead_us);
  cfg.max_delivery_attempts = s.max_delivery_attempts;
  cfg.delivery_backpressure = usec(s.backpressure_us);
  return cfg;
}

/// Runs the pipeline over `backend`, filling `run`. Open scenarios run the
/// streaming entry point (a fresh deterministic source per backend, so every
/// backend sees the identical task stream) and capture the latency digest.
/// An InvariantViolation from anywhere inside the library is itself an
/// oracle failure (the whole point of the sweep), reported under the
/// pseudo-oracle "harness".
bool run_pipeline(const Scenario& scenario,
                  const sched::PhaseAlgorithm& algorithm,
                  const sched::QuantumPolicy& quantum,
                  const sched::PipelineConfig& config,
                  const std::vector<tasks::Task>& workload,
                  sched::ExecutionBackend& backend, BackendRun& run,
                  std::vector<std::string>& violations) {
  const sched::PhasePipeline pipeline(algorithm, quantum, config);
  sched::PhaseTraceRecorder trace;
  sched::TaskLedger ledger;
  try {
    if (scenario.open_arrival != kOpenClosed) {
      const std::unique_ptr<tasks::ArrivalSource> source =
          make_stream_source(scenario);
      sched::StreamOptions sopts;
      sopts.max_pending = scenario.max_pending;
      sched::StreamStats stats(sopts);
      run.metrics = pipeline.run_stream(*source, backend, sopts, &stats,
                                        &trace, &ledger);
      run.has_latency = true;
      run.latency_count = stats.schedule_latency.count();
      run.latency_underflow = stats.schedule_latency.underflow();
      run.latency_overflow = stats.schedule_latency.overflow();
      run.latency_buckets = stats.schedule_latency.buckets();
    } else {
      run.metrics = pipeline.run(workload, backend, &trace, &ledger);
    }
  } catch (const Error& e) {
    violations.push_back("harness(" + run.name +
                         "): exception: " + e.what());
    return false;
  }
  run.ledger = ledger.counts();
  run.phases = trace.records();
  run.has_ledger = true;
  run.has_phases = true;
  return true;
}

/// Deliberate post-run corruption for the oracle self-test (harness_test).
void apply_mutation(Mutation mutation, BackendRun& run) {
  switch (mutation) {
    case Mutation::kNone:
      return;
    case Mutation::kLoseHit:
      // A task executed and hit, but the books never heard about it — the
      // silent-loss bug class. Mutate metrics AND ledger consistently so
      // only the conservation balance (not a trivial field mismatch) can
      // catch it.
      if (run.metrics.deadline_hits > 0) {
        --run.metrics.deadline_hits;
        if (run.has_ledger) --run.ledger.deadline_hits;
      }
      return;
    case Mutation::kCorruptQuantum:
      if (run.has_phases && !run.phases.empty()) {
        sched::PhaseRecord& r = run.phases.back();
        r.quantum = usec(r.quantum.us + 1);
      }
      return;
    case Mutation::kCorruptGangWidth:
      // Handled in run_scenario: this mutation doctors the workload copy
      // the gang-occupancy oracle sees, not the BackendRun.
      return;
  }
}

/// kCorruptGangWidth: every gang task claims one worker more than it was
/// actually given, so the oracle's declared-vs-executed width cross-check
/// fires iff a gang task executed.
std::vector<tasks::Task> doctor_gang_widths(std::vector<tasks::Task> tasks) {
  for (tasks::Task& t : tasks) {
    if (t.workers_required >= 2) ++t.workers_required;
  }
  return tasks;
}

void summarize(std::ostringstream& os, const BackendRun& run) {
  const sched::RunMetrics& m = run.metrics;
  os << "  " << run.name << ": tasks " << m.total_tasks << " hits "
     << m.deadline_hits << " exec_misses " << m.exec_misses << " culled "
     << m.culled << " rejected " << m.rejected << " phases " << m.phases
     << " readmissions " << m.readmissions << " overflow "
     << m.overflow_drops << "\n";
}

}  // namespace

std::string ScenarioResult::to_string() const {
  std::ostringstream os;
  os << "token " << token << "\n" << scenario.to_string() << "\n";
  summarize(os, sim);
  summarize(os, rerun);
  if (threaded_ran) summarize(os, threaded);
  for (const BackendRun& run : shard_runs) summarize(os, run);
  if (violations.empty()) {
    os << "  all oracles passed";
  } else {
    for (const std::string& v : violations) os << "  VIOLATION " << v;
  }
  return os.str();
}

ScenarioResult run_scenario(const Scenario& scenario,
                            const HarnessOptions& options) {
  ScenarioResult result;
  result.scenario = scenario;
  result.token = encode_token(scenario);

  // Open scenarios have no workload vector to drive the pipeline with; the
  // materialized stream is still needed by the validity oracle (the offered
  // task population) and the sharded routing audit guard below.
  const bool open = scenario.open_arrival != kOpenClosed;
  const std::vector<tasks::Task> workload =
      open ? make_stream_tasks(scenario) : make_workload(scenario);
  const machine::ReclaimMode reclaim = scenario.reclaim != 0
                                           ? machine::ReclaimMode::kReclaim
                                           : machine::ReclaimMode::kWorstCase;
  const SimDuration comm = usec(scenario.comm_cost_us);
  std::unique_ptr<sched::PhaseAlgorithm> algorithm;
  try {
    algorithm = make_algorithm(scenario);
  } catch (const Error& e) {
    // A replayed token can name a spec this build's registry rejects
    // (typo'd by hand, or from a different version) — report, don't crash.
    result.violations.push_back(std::string("harness(algorithm): ") +
                                e.what());
    return result;
  }
  const auto quantum = make_quantum(scenario);
  const sched::PipelineConfig des_config = pipeline_config(scenario, false);
  // The workload the gang-occupancy oracle audits against — identical to
  // the real one unless the self-test mutation doctors the declared widths.
  const std::vector<tasks::Task> oracle_workload =
      options.mutation == Mutation::kCorruptGangWidth
          ? doctor_gang_widths(workload)
          : workload;

  // -- sim: the reference run ------------------------------------------------
  machine::Cluster sim_cluster(
      scenario.workers,
      machine::Interconnect::cut_through(scenario.workers, comm), reclaim);
  sim::Simulator simulator;
  sched::SimBackend sim_inner(sim_cluster, simulator);
  FaultInjectingBackend sim_backend(sim_inner, scenario.refusal_period);
  result.sim.name = "sim";
  const bool sim_ok = run_pipeline(scenario, *algorithm, *quantum, des_config,
                                   workload, sim_backend, result.sim,
                                   result.violations);
  if (sim_ok) {
    apply_mutation(options.mutation, result.sim);
    oracle_correction_theorem(result.sim, result.violations);
    oracle_conservation(result.sim, result.violations);
    oracle_quantum_bound(scenario, result.sim, result.violations);
    oracle_schedule_validity("sim", sim_cluster, workload, result.violations);
    oracle_gang_occupancy("sim", sim_cluster, oracle_workload,
                          result.violations);
    oracle_stream_accounting(result.sim, result.violations);
  }

  // -- rerun: the same scenario on a fresh machine and clock ----------------
  // Must match the sim run field-for-field; a difference is state that
  // leaked from one run into the next. Wrapped in an identical fault
  // injector, so both runs see the exact same refusal sequence and stay in
  // parity even under readmission / rejection / backpressure churn.
  machine::Cluster rerun_cluster(
      scenario.workers,
      machine::Interconnect::cut_through(scenario.workers, comm), reclaim);
  sim::Simulator rerun_clock;
  sched::SimBackend rerun_inner(rerun_cluster, rerun_clock);
  FaultInjectingBackend rerun_backend(rerun_inner, scenario.refusal_period);
  result.rerun.name = "rerun";
  const bool rerun_ok = run_pipeline(scenario, *algorithm, *quantum,
                                     des_config, workload, rerun_backend,
                                     result.rerun, result.violations);
  if (rerun_ok) {
    oracle_correction_theorem(result.rerun, result.violations);
    oracle_conservation(result.rerun, result.violations);
    oracle_quantum_bound(scenario, result.rerun, result.violations);
    oracle_schedule_validity("rerun", rerun_cluster, workload,
                             result.violations);
    oracle_gang_occupancy("rerun", rerun_cluster, oracle_workload,
                          result.violations);
    oracle_stream_accounting(result.rerun, result.violations);
    if (sim_ok) {
      oracle_metric_parity(result.sim, result.rerun, result.violations);
    }
  }

  // -- multi-shard audit (scenario.num_shards > 1) ---------------------------
  // run_partitioned owns its shards, so refusal injection cannot be threaded
  // through; the sharded run audits routing + per-shard guarantees instead.
  if (scenario.num_shards > 1 && !open) {
    sched::PartitionedConfig pcfg;
    pcfg.num_shards = scenario.num_shards;
    pcfg.total_workers = scenario.workers;
    pcfg.comm_cost = comm;
    pcfg.reclaim = reclaim;
    pcfg.pipeline = des_config;
    try {
      const sched::PartitionedMetrics pm = sched::run_partitioned(
          *algorithm, *quantum, pcfg, workload);
      std::uint64_t routed = 0;
      for (std::size_t s = 0; s < pm.shards.size(); ++s) {
        BackendRun run;
        run.name = "shard[" + std::to_string(s) + "]";
        run.metrics = pm.shards[s];
        routed += run.metrics.total_tasks;
        oracle_correction_theorem(run, result.violations);
        oracle_conservation(run, result.violations);
        result.shard_runs.push_back(std::move(run));
      }
      if (routed != workload.size()) {
        result.violations.push_back(
            "conservation(sharded): routing lost tasks: " +
            std::to_string(routed) + " routed of " +
            std::to_string(workload.size()));
      }
      if (!pm.conserved()) {
        result.violations.push_back(
            "conservation(sharded): cross-shard totals do not balance");
      }
    } catch (const Error& e) {
      result.violations.push_back(std::string("harness(sharded): exception: ") +
                                  e.what());
    }
  }

  // -- threaded: real threads, wall clock ------------------------------------
  if (options.run_threaded && scenario.run_threaded != 0) {
    result.threaded_ran = true;
    runtime::RuntimeConfig rcfg;
    rcfg.num_workers = scenario.workers;
    rcfg.comm_cost = comm;
    rcfg.time_scale = options.threaded_time_scale;
    rcfg.mailbox_capacity = scenario.mailbox_capacity;
    rcfg.delivery_retries = scenario.delivery_retries;
    const sched::PipelineConfig thr_config = pipeline_config(scenario, true);
    runtime::ThreadedBackend thr_inner(rcfg);
    FaultInjectingBackend thr_backend(thr_inner, scenario.refusal_period);
    result.threaded.name = "threaded";
    const bool thr_ok = run_pipeline(scenario, *algorithm, *quantum,
                                     thr_config, workload, thr_backend,
                                     result.threaded, result.violations);
    if (thr_ok) {
      // No correction-theorem / timing oracle here: deadlines are judged
      // against wall-clock jitter. Conservation, the quantum audit and the
      // latency sample accounting are clock-independent; count parity holds
      // on parity-class scenarios whose laxity dwarfs any jitter.
      oracle_conservation(result.threaded, result.violations);
      oracle_stream_accounting(result.threaded, result.violations);
      Scenario thr_scenario = scenario;
      thr_scenario.phase_overhead_us = 0;
      oracle_quantum_bound(thr_scenario, result.threaded, result.violations);
      if (scenario.parity_class != 0 && sim_ok) {
        oracle_threaded_parity(result.sim, result.threaded,
                               result.violations);
      }
    }
  }

  return result;
}

}  // namespace rtds::testing
