// EXT-MULTIHOST — Sharded scheduling beyond the single-host bottleneck.
//
// The paper dedicates ONE processor to scheduling; our bottleneck analysis
// (EXPERIMENTS.md, FIG5) shows scheduling throughput capping compliance as
// m grows. This bench scales the machine to m = 8..32 workers and compares
// 1, 2 and 4 scheduling hosts, each running RT-SADS over its shard of the
// workers (tasks routed by affinity).
//
// Expected shape: all shard counts agree at small m; as m grows the
// single host saturates while sharded configurations keep climbing —
// scheduling capacity, not worker capacity, is the high-end limit.
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "exp/table.h"
#include "sched/partitioned.h"
#include "sched/quantum.h"
#include "tasks/workload.h"

namespace {

using namespace rtds;
using rtds::bench::make_algo;

double mean_hit(std::uint32_t shards, std::uint32_t workers,
                std::uint32_t reps) {
  const auto algo = make_algo("rt_sads");
  const auto quantum =
      sched::make_self_adjusting_quantum(usec(100), msec(20));
  RunningStats s;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    tasks::WorkloadConfig wc;
    wc.num_tasks = 2000;
    wc.num_processors = workers;
    wc.processing_min = msec(1);
    wc.processing_max = msec(5);
    wc.affinity_degree = 0.2;
    wc.laxity_min = 8.0;
    wc.laxity_max = 15.0;
    Xoshiro256ss rng(bench::bench_seed("multihost", rep));
    const auto wl = tasks::generate_workload(wc, rng);

    sched::PartitionedConfig cfg;
    cfg.num_shards = shards;
    cfg.total_workers = workers;
    cfg.comm_cost = msec(3);
    cfg.pipeline.vertex_generation_cost = usec(2);
    cfg.pipeline.phase_overhead = usec(50);
    const sched::PartitionedMetrics m =
        sched::run_partitioned(*algo, *quantum, cfg, wl);
    s.add(m.hit_ratio());
  }
  return s.mean() * 100.0;
}

}  // namespace

int main() {
  using namespace rtds;
  using namespace rtds::bench;

  print_header("EXT-MULTIHOST — 1 vs 2 vs 4 scheduling hosts",
               "extension: past the single-host throughput cap of Sec. 5",
               "curves agree at small m; only sharded configs keep rising");

  exp::TextTable table({"workers", "1 host hit%", "2 hosts hit%",
                        "4 hosts hit%"});
  for (std::uint32_t m : {8u, 16u, 24u, 32u}) {
    table.add_row({std::to_string(m), exp::fmt(mean_hit(1, m, 5), 1),
                   exp::fmt(mean_hit(2, m, 5), 1),
                   exp::fmt(mean_hit(4, m, 5), 1)});
  }
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
