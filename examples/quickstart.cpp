// Quickstart: schedule a synthetic real-time workload with RT-SADS on a
// simulated 8-worker distributed-memory machine and print the outcome.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "common/rng.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

int main() {
  using namespace rtds;

  // 1. A machine: 8 workers, constant (cut-through) communication cost of
  //    2 ms for any task placed off its data.
  constexpr std::uint32_t kWorkers = 8;
  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(2)));

  // 2. A workload: 400 tasks arriving in one burst, 1-10 ms of work each,
  //    affinity with ~30% of the workers, deadlines 8x the processing time.
  tasks::WorkloadConfig wl;
  wl.num_tasks = 400;
  wl.num_processors = kWorkers;
  wl.arrival = tasks::ArrivalPattern::kBursty;
  wl.processing_min = msec(1);
  wl.processing_max = msec(10);
  wl.affinity_degree = 0.3;
  wl.laxity_min = wl.laxity_max = 8.0;
  Xoshiro256ss rng(/*seed=*/42);
  const std::vector<tasks::Task> workload = tasks::generate_workload(wl, rng);

  // 3. The scheduler: RT-SADS with the paper's self-adjusting quantum.
  const auto algorithm = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto quantum = sched::make_self_adjusting_quantum(
      /*min_quantum=*/usec(100), /*max_quantum=*/msec(50));

  // 4. Run the pipeline on the simulated machine and clock.
  sim::Simulator simulator;
  sched::SimBackend backend(cluster, simulator);
  const sched::PhasePipeline pipeline(*algorithm, *quantum);
  const sched::RunMetrics m = pipeline.run(workload, backend);

  std::cout << "tasks offered        : " << m.total_tasks << "\n"
            << "scheduled            : " << m.scheduled << "\n"
            << "deadline hits        : " << m.deadline_hits << "\n"
            << "missed in execution  : " << m.exec_misses
            << "   (correction theorem: always 0)\n"
            << "culled (unreachable) : " << m.culled << "\n"
            << "hit ratio            : " << m.hit_ratio() * 100.0 << "%\n"
            << "scheduling phases    : " << m.phases << "\n"
            << "vertices generated   : " << m.vertices_generated << "\n"
            << "host scheduling time : " << m.scheduling_time.millis()
            << " ms\n"
            << "makespan             : " << double(m.finish_time.us) / 1000.0
            << " ms\n";
  return 0;
}
