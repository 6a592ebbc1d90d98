#include "sched/partitioned.h"

#include "common/error.h"
#include "sched/backend.h"
#include "sched/pipeline.h"

namespace rtds::sched {

std::uint64_t PartitionedMetrics::total_tasks() const {
  std::uint64_t n = 0;
  for (const RunMetrics& m : shards) n += m.total_tasks;
  return n;
}

std::uint64_t PartitionedMetrics::deadline_hits() const {
  std::uint64_t n = 0;
  for (const RunMetrics& m : shards) n += m.deadline_hits;
  return n;
}

std::uint64_t PartitionedMetrics::exec_misses() const {
  std::uint64_t n = 0;
  for (const RunMetrics& m : shards) n += m.exec_misses;
  return n;
}

std::uint64_t PartitionedMetrics::culled() const {
  std::uint64_t n = 0;
  for (const RunMetrics& m : shards) n += m.culled;
  return n;
}

std::uint64_t PartitionedMetrics::rejected() const {
  std::uint64_t n = 0;
  for (const RunMetrics& m : shards) n += m.rejected;
  return n;
}

double PartitionedMetrics::hit_ratio() const {
  const std::uint64_t total = total_tasks();
  return total == 0 ? 1.0 : double(deadline_hits()) / double(total);
}

SimTime PartitionedMetrics::finish_time() const {
  SimTime latest = SimTime::zero();
  for (const RunMetrics& m : shards) {
    if (m.finish_time > latest) latest = m.finish_time;
  }
  return latest;
}

std::uint32_t route_shard(const tasks::Task& task, std::uint32_t num_shards,
                          std::uint32_t workers_per_shard,
                          const std::vector<std::uint64_t>& shard_counts) {
  std::uint32_t best = 0;
  std::uint32_t best_affine = 0;
  bool first = true;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    std::uint32_t affine = 0;
    for (std::uint32_t w = 0; w < workers_per_shard; ++w) {
      if (task.affinity.contains(s * workers_per_shard + w)) ++affine;
    }
    const bool better =
        first || affine > best_affine ||
        (affine == best_affine && shard_counts[s] < shard_counts[best]);
    if (better) {
      best = s;
      best_affine = affine;
      first = false;
    }
  }
  return best;
}

PartitionedMetrics run_partitioned(const PhaseAlgorithm& algorithm,
                                   const QuantumPolicy& quantum,
                                   const PartitionedConfig& config,
                                   const std::vector<tasks::Task>& workload,
                                   PhaseObserver* observer) {
  RTDS_REQUIRE(config.num_shards >= 1, "run_partitioned: need >= 1 shard");
  RTDS_REQUIRE(config.total_workers >= config.num_shards,
               "run_partitioned: fewer workers than shards");
  RTDS_REQUIRE(config.total_workers % config.num_shards == 0,
               "run_partitioned: total_workers must divide evenly");
  const std::uint32_t per_shard = config.total_workers / config.num_shards;
  RTDS_REQUIRE(per_shard <= tasks::AffinitySet::kMaxProcessors,
               "run_partitioned: shard too large");

  // Route tasks; remap affinity into shard-local worker ids.
  std::vector<std::vector<tasks::Task>> shard_workloads(config.num_shards);
  std::vector<std::uint64_t> shard_counts(config.num_shards, 0);
  for (const tasks::Task& task : workload) {
    const std::uint32_t s =
        route_shard(task, config.num_shards, per_shard, shard_counts);
    tasks::Task local = task;
    local.affinity = tasks::AffinitySet::none();
    for (std::uint32_t w = 0; w < per_shard; ++w) {
      if (task.affinity.contains(s * per_shard + w)) local.affinity.add(w);
    }
    if (local.affinity.empty()) {
      // Data lives entirely on other shards: every local worker is equally
      // remote. Model the single cross-shard fetch by folding C into the
      // processing demand and treating all shard workers as holders
      // afterwards (the fetched copy is local for the execution).
      local.affinity = tasks::AffinitySet::all(per_shard);
      local.processing += config.comm_cost;
      if (!local.actual_processing.is_zero()) {
        local.actual_processing += config.comm_cost;
      }
    }
    shard_workloads[s].push_back(local);
    ++shard_counts[s];
  }

  // One pipeline, K scheduling hosts: each shard runs the SAME phase loop
  // (sched/pipeline.cc) against its own machine and DES clock.
  PartitionedMetrics out;
  out.shards.reserve(config.num_shards);
  const PhasePipeline pipeline(algorithm, quantum, config.pipeline);
  for (std::uint32_t s = 0; s < config.num_shards; ++s) {
    machine::Cluster cluster(
        per_shard,
        machine::Interconnect::cut_through(per_shard, config.comm_cost),
        config.reclaim);
    sim::Simulator sim;
    SimBackend backend(cluster, sim);
    out.shards.push_back(pipeline.run(shard_workloads[s], backend, observer));
  }
  return out;
}

}  // namespace rtds::sched
