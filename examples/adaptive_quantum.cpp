// Walkthrough of the self-adjusting scheduling-time criterion (Sec. 4.2).
//
// Composes the library's pieces by hand — Batch, Cluster, SearchEngine,
// SelfAdjustingQuantum — instead of using PhaseScheduler, and prints a
// per-phase trace: Min_Slack, Min_Load, the allocated Q_s(j), the vertex
// budget it buys, and what each phase achieved. Watch the quantum shrink
// when slack gets tight or workers go idle, and stretch when the workers
// are loaded anyway (Fig. 3's motivation).
#include <iomanip>
#include <iostream>

#include "common/rng.h"
#include "machine/cluster.h"
#include "search/engine.h"
#include "sched/quantum.h"
#include "tasks/batch.h"
#include "tasks/workload.h"

int main() {
  using namespace rtds;

  constexpr std::uint32_t kWorkers = 4;
  const SimDuration kVertexCost = usec(5);
  const SimDuration kPhaseOverhead = usec(50);

  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(2)));

  // Two waves of tasks: a tight burst at t=0 and a loose burst at t=40ms.
  Xoshiro256ss rng(7);
  tasks::WorkloadConfig tight;
  tight.num_tasks = 40;
  tight.num_processors = kWorkers;
  tight.processing_min = msec(1);
  tight.processing_max = msec(4);
  tight.laxity_min = tight.laxity_max = 4.0;
  tight.affinity_degree = 0.5;
  auto wave1 = tasks::generate_workload(tight, rng);

  tasks::WorkloadConfig loose = tight;
  loose.num_tasks = 40;
  loose.start = SimTime::zero() + msec(40);
  loose.laxity_min = loose.laxity_max = 30.0;
  loose.first_id = 1000;
  auto wave2 = tasks::generate_workload(loose, rng);

  std::vector<tasks::Task> all = wave1;
  all.insert(all.end(), wave2.begin(), wave2.end());

  const sched::SelfAdjustingQuantum quantum(usec(200), msec(15));
  const search::SearchEngine engine(search::SearchConfig{});

  tasks::Batch batch;
  std::size_t cursor = 0;
  SimTime t = SimTime::zero();
  int phase = 0;

  std::cout << "phase     t(ms)  batch  MinSlack(ms)  MinLoad(ms)  Q_s(ms)  "
               "budget  placed  note\n";
  while (true) {
    std::vector<tasks::Task> arrived;
    while (cursor < all.size() && all[cursor].arrival <= t) {
      arrived.push_back(all[cursor++]);
    }
    batch.merge_arrivals(arrived);
    batch.cull_missed(t);
    if (batch.empty()) {
      if (cursor >= all.size()) break;
      t = all[cursor].arrival;
      continue;
    }

    const SimDuration min_slack = batch.min_slack(t);
    const SimDuration min_load = cluster.min_load(t);
    SimDuration q = quantum.allocate(min_slack, min_load);
    q = max_duration(q, kPhaseOverhead + kVertexCost);
    const auto budget =
        static_cast<std::uint64_t>((q - kPhaseOverhead) / kVertexCost);

    std::vector<SimDuration> base(kWorkers);
    for (std::uint32_t k = 0; k < kWorkers; ++k) {
      const SimDuration load = cluster.load(k, t);
      base[k] = load <= q ? SimDuration::zero() : load - q;
    }
    const auto result = engine.run(batch.tasks(), base, t + q,
                                   cluster.interconnect(), budget);

    const SimTime end =
        t + kVertexCost * std::int64_t(result.stats.vertices_generated) +
        kPhaseOverhead;
    std::vector<machine::ScheduledAssignment> delivery;
    std::vector<std::uint8_t> scheduled(batch.size(), 0);
    for (const auto& a : result.schedule) {
      delivery.push_back({batch.tasks()[a.task_index], a.worker});
      scheduled[a.task_index] = 1;
    }
    cluster.deliver(delivery, end);
    batch.remove_marked(scheduled);

    std::cout << std::setw(5) << phase++ << std::setw(10) << std::fixed
              << std::setprecision(2) << double(t.us) / 1000.0
              << std::setw(7) << batch.size() + delivery.size()
              << std::setw(13) << min_slack.millis() << std::setw(13)
              << min_load.millis() << std::setw(9) << q.millis()
              << std::setw(8) << budget << std::setw(8) << delivery.size()
              << "  "
              << (result.stats.dead_end          ? "dead-end"
                  : result.stats.reached_leaf    ? "complete"
                  : result.stats.budget_exhausted ? "budget out"
                                                  : "")
              << "\n";
    t = end;
  }

  const auto& stats = cluster.stats();
  std::cout << "\nexecuted " << stats.executed << " tasks, "
            << stats.deadline_hits << " met their deadline, "
            << stats.deadline_misses
            << " missed during execution (theorem: must be 0)\n";
  return 0;
}
