// Cross-backend parity: the ONE PhasePipeline must behave the same no
// matter which ExecutionBackend it drives.
//
//   * SimBackend vs ThreadedBackend — a deterministic workload (all tasks
//     present at t=0, laxity far beyond any wall-clock jitter, time_scale
//     << 1) must yield identical scheduled/culled counts: the phase
//     decisions depend only on the batch and the (initially idle) loads,
//     which both backends present identically.
//   * PartitionedBackend with K=1 — exactly one host owning all workers is
//     the same machine as a plain SimBackend, so the full RunMetrics must
//     match field for field (also asserted in sched/partitioned_test.cc on
//     a generated workload; here on the shared parity workload).
#include <gtest/gtest.h>

#include <vector>

#include "machine/cluster.h"
#include "runtime/threaded_backend.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/task.h"

namespace rtds {
namespace {

using sched::RunMetrics;
using tasks::AffinitySet;
using tasks::Task;

constexpr std::uint32_t kWorkers = 3;

/// All tasks arrive at t=0 with enormous laxity: every backend sees the
/// same single initial batch, schedules everything in the first phases and
/// culls nothing, regardless of clock jitter.
std::vector<Task> parity_workload() {
  std::vector<Task> wl;
  for (std::uint32_t i = 0; i < 12; ++i) {
    Task t;
    t.id = i;
    t.arrival = SimTime::zero();
    t.processing = msec(1 + (i % 3));
    t.deadline = SimTime::zero() + sec(120);  // >> any wall-clock noise
    t.affinity = AffinitySet::single(i % kWorkers);
    wl.push_back(t);
  }
  return wl;
}

/// The threaded deployment's pipeline settings: a live phase costs the
/// wall time its search took, so no synthetic per-phase overhead.
sched::PipelineConfig live_config() {
  sched::PipelineConfig cfg;
  cfg.phase_overhead = SimDuration::zero();
  return cfg;
}

TEST(BackendParityTest, SimAndThreadedAgreeOnScheduledAndCulled) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  const std::vector<Task> wl = parity_workload();

  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(1)));
  sim::Simulator sim;
  const sched::PhasePipeline pipeline(*algo, *q);
  sched::SimBackend sim_backend(cluster, sim);
  const RunMetrics sim_m = pipeline.run(wl, sim_backend);

  runtime::RuntimeConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.comm_cost = msec(1);
  cfg.time_scale = 0.01;  // execute 100x faster than nominal
  const sched::PhasePipeline live(*algo, *q, live_config());
  runtime::ThreadedBackend thr_backend(cfg);
  const RunMetrics thr_m = live.run(wl, thr_backend);

  EXPECT_EQ(sim_m.total_tasks, wl.size());
  EXPECT_EQ(sim_m.scheduled, wl.size());
  EXPECT_EQ(sim_m.culled, 0u);
  EXPECT_EQ(thr_m.scheduled, sim_m.scheduled);
  EXPECT_EQ(thr_m.culled, sim_m.culled);
  EXPECT_EQ(thr_m.overflow_drops, 0u);
  EXPECT_EQ(thr_m.readmissions, 0u);
  EXPECT_EQ(thr_m.rejected, 0u);
  // With two-minute deadlines both deployments also hit everything.
  EXPECT_EQ(sim_m.deadline_hits, wl.size());
  EXPECT_EQ(thr_m.deadline_hits, wl.size());
}

TEST(BackendParityTest, PartitionedSingleHostMatchesSimBackendExactly) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  const std::vector<Task> wl = parity_workload();
  const sched::PhasePipeline pipeline(*algo, *q);

  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(1)));
  sim::Simulator sim;
  sched::SimBackend sim_backend(cluster, sim);
  const RunMetrics sim_m = pipeline.run(wl, sim_backend);

  sched::PartitionedBackend part(1, kWorkers, msec(1),
                                 machine::ReclaimMode::kWorstCase);
  const RunMetrics part_m = pipeline.run(wl, part.host(0));

  EXPECT_EQ(part_m.total_tasks, sim_m.total_tasks);
  EXPECT_EQ(part_m.scheduled, sim_m.scheduled);
  EXPECT_EQ(part_m.deadline_hits, sim_m.deadline_hits);
  EXPECT_EQ(part_m.exec_misses, sim_m.exec_misses);
  EXPECT_EQ(part_m.culled, sim_m.culled);
  EXPECT_EQ(part_m.rejected, sim_m.rejected);
  EXPECT_EQ(part_m.overflow_drops, sim_m.overflow_drops);
  EXPECT_EQ(part_m.readmissions, sim_m.readmissions);
  EXPECT_EQ(part_m.backpressure_waits, sim_m.backpressure_waits);
  EXPECT_EQ(part_m.quantum_floor_overrides, sim_m.quantum_floor_overrides);
  EXPECT_EQ(part_m.phases, sim_m.phases);
  EXPECT_EQ(part_m.vertices_generated, sim_m.vertices_generated);
  EXPECT_EQ(part_m.expansions, sim_m.expansions);
  EXPECT_EQ(part_m.backtracks, sim_m.backtracks);
  EXPECT_EQ(part_m.dead_ends, sim_m.dead_ends);
  EXPECT_EQ(part_m.leaves, sim_m.leaves);
  EXPECT_EQ(part_m.budget_exhaustions, sim_m.budget_exhaustions);
  EXPECT_EQ(part_m.finish_time, sim_m.finish_time);
  EXPECT_EQ(part_m.scheduling_time, sim_m.scheduling_time);
  EXPECT_EQ(part_m.allocated_quantum, sim_m.allocated_quantum);
  EXPECT_EQ(part_m.min_quantum_seen, sim_m.min_quantum_seen);
  EXPECT_EQ(part_m.max_quantum_seen, sim_m.max_quantum_seen);
  // Same completion log on the underlying clusters, record for record.
  const auto& a = cluster.log();
  const auto& b = part.cluster(0).log();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].task, b[i].task);
    EXPECT_EQ(a[i].worker, b[i].worker);
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(BackendParityTest, ObserverSeesPhasesOnEveryBackend) {
  // Phase tracing used to be a DES-only feature; through the unified
  // pipeline the threaded deployment reports phases identically.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  const std::vector<Task> wl = parity_workload();

  sched::PhaseTraceRecorder sim_trace;
  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(1)));
  sim::Simulator sim;
  const sched::PhasePipeline pipeline(*algo, *q);
  sched::SimBackend sim_backend(cluster, sim);
  const RunMetrics sim_m = pipeline.run(wl, sim_backend, &sim_trace);
  EXPECT_EQ(sim_trace.records().size(), sim_m.phases);

  sched::PhaseTraceRecorder thr_trace;
  runtime::RuntimeConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.comm_cost = msec(1);
  cfg.time_scale = 0.01;
  const sched::PhasePipeline live(*algo, *q, live_config());
  runtime::ThreadedBackend thr_backend(cfg);
  const RunMetrics thr_m = live.run(wl, thr_backend, &thr_trace);
  EXPECT_EQ(thr_trace.records().size(), thr_m.phases);
  ASSERT_FALSE(thr_trace.records().empty());
  EXPECT_EQ(thr_trace.records().front().batch_size, wl.size());
}

}  // namespace
}  // namespace rtds
