#include "exp/experiment.h"

#include "common/error.h"
#include "common/rng.h"
#include "db/placement.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sim/simulator.h"

namespace rtds::exp {

std::unique_ptr<sched::QuantumPolicy> ExperimentConfig::make_quantum() const {
  switch (quantum) {
    case QuantumKind::kSelfAdjusting:
      return sched::make_self_adjusting_quantum(min_quantum, max_quantum);
    case QuantumKind::kFixed:
      return sched::make_fixed_quantum(fixed_quantum);
  }
  RTDS_ASSERT_MSG(false, "unreachable quantum kind");
  return nullptr;
}

machine::Cluster ExperimentConfig::make_cluster() const {
  return machine::Cluster(
      num_workers, machine::Interconnect::cut_through(num_workers, comm_cost),
      reclaim_actual_costs ? machine::ReclaimMode::kReclaim
                           : machine::ReclaimMode::kWorstCase);
}

std::vector<tasks::Task> make_workload(const ExperimentConfig& config,
                                       std::uint64_t seed) {
  Xoshiro256ss rng(seed);

  const db::GlobalDatabase database(config.database, rng);
  const db::Placement placement = db::Placement::rotation(
      config.database.num_subdbs, config.num_workers,
      config.replication_rate);

  db::TransactionWorkloadConfig txn_cfg;
  txn_cfg.num_transactions = config.num_transactions;
  txn_cfg.max_predicates = config.max_predicates;
  txn_cfg.scaling_factor = config.scaling_factor;
  txn_cfg.fill_actual_costs = config.reclaim_actual_costs;
  const std::vector<db::Transaction> txns =
      db::generate_transactions(database, txn_cfg, rng);
  std::vector<tasks::Task> workload =
      db::to_tasks(txns, database, placement, txn_cfg);

  // Gang/moldable extension: widen a fraction of the transactions AFTER the
  // full workload is generated, so gang_fraction == 0 draws nothing and the
  // historical task stream is reproduced byte-for-byte.
  if (config.gang_fraction > 0.0) {
    RTDS_REQUIRE(config.gang_max_workers >= 2 &&
                     config.gang_max_workers <= config.num_workers,
                 "make_workload: gang_max_workers must be in [2, num_workers]");
    for (tasks::Task& t : workload) {
      if (rng.bernoulli(config.gang_fraction)) {
        t.workers_required = static_cast<std::uint32_t>(
            rng.uniform_int(2, config.gang_max_workers));
      }
    }
  }
  return workload;
}

sched::RunMetrics run_workload(const ExperimentConfig& config,
                               const sched::PhaseAlgorithm& algorithm,
                               const std::vector<tasks::Task>& workload,
                               machine::Cluster& cluster,
                               sched::PhaseObserver* observer) {
  sim::Simulator simulator;
  const auto quantum = config.make_quantum();
  sched::PipelineConfig pipeline_cfg;
  pipeline_cfg.vertex_generation_cost = config.vertex_cost;
  pipeline_cfg.phase_overhead = config.phase_overhead;
  const sched::PhasePipeline pipeline(algorithm, *quantum, pipeline_cfg);
  sched::SimBackend backend(cluster, simulator);
  return pipeline.run(workload, backend, observer);
}

sched::RunMetrics run_once(const ExperimentConfig& config,
                           const sched::PhaseAlgorithm& algorithm,
                           std::uint64_t seed) {
  machine::Cluster cluster = config.make_cluster();
  return run_workload(config, algorithm, make_workload(config, seed), cluster);
}

Aggregate run_repeated(const ExperimentConfig& config,
                       const sched::PhaseAlgorithm& algorithm) {
  RTDS_REQUIRE(config.repetitions >= 1, "run_repeated: need >= 1 repetition");
  Aggregate agg;
  agg.algorithm = algorithm.name();
  for (std::uint32_t i = 0; i < config.repetitions; ++i) {
    const sched::RunMetrics m =
        run_once(config, algorithm, derive_seed(config.base_seed, i));
    agg.hit_ratio.add(m.hit_ratio());
    agg.scheduled_ratio.add(
        m.total_tasks == 0 ? 1.0
                           : double(m.scheduled) / double(m.total_tasks));
    agg.exec_misses.add(double(m.exec_misses));
    agg.culled.add(double(m.culled));
    agg.phases.add(double(m.phases));
    agg.dead_ends.add(double(m.dead_ends));
    agg.backtracks_per_phase.add(
        m.phases == 0 ? 0.0 : double(m.backtracks) / double(m.phases));
    agg.vertices.add(double(m.vertices_generated));
    agg.sched_time_ms.add(m.scheduling_time.millis());
    agg.makespan_ms.add(double(m.finish_time.us) * 1e-3);
    agg.mean_quantum_ms.add(
        m.phases == 0 ? 0.0
                      : m.allocated_quantum.millis() / double(m.phases));
  }
  return agg;
}

WelchResult compare_hit_ratios(const Aggregate& a, const Aggregate& b) {
  return welch_t_test(a.hit_ratio, b.hit_ratio);
}

}  // namespace rtds::exp
