#include "exp/analysis.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "machine/validator.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

namespace rtds::exp {
namespace {

TEST(BalanceSummaryTest, PerfectBalance) {
  machine::Cluster cl(2, machine::Interconnect::cut_through(2, msec(0)));
  tasks::Task t;
  t.processing = msec(4);
  t.deadline = SimTime{1000000};
  t.affinity = tasks::AffinitySet::all(2);
  t.id = 1;
  machine::ScheduledAssignment a{t, 0};
  t.id = 2;
  machine::ScheduledAssignment b{t, 1};
  cl.deliver({a, b}, SimTime::zero());
  const BalanceSummary s = balance_summary(cl);
  EXPECT_DOUBLE_EQ(s.imbalance, 0.0);
  EXPECT_EQ(s.idle_workers, 0u);
  EXPECT_DOUBLE_EQ(s.busy_ms.mean(), 4.0);
}

TEST(BalanceSummaryTest, DetectsIdleWorkers) {
  machine::Cluster cl(3, machine::Interconnect::cut_through(3, msec(0)));
  tasks::Task t;
  t.id = 1;
  t.processing = msec(4);
  t.deadline = SimTime{1000000};
  t.affinity = tasks::AffinitySet::all(3);
  cl.deliver({{t, 0}}, SimTime::zero());
  const BalanceSummary s = balance_summary(cl);
  EXPECT_EQ(s.idle_workers, 2u);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.0);
}

TEST(AnalysisIntegrationTest, EndToEndRunValidatesAndAnalyzes) {
  // Full pipeline -> oracle validation + analysis, for both schedulers.
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    machine::Cluster cluster(4,
                             machine::Interconnect::cut_through(4, msec(2)));
    sim::Simulator sim;
    const auto quantum = sched::make_self_adjusting_quantum(usec(100),
                                                            msec(10));
    tasks::WorkloadConfig wc;
    wc.num_tasks = 150;
    wc.num_processors = 4;
    wc.laxity_min = 3.0;
    wc.laxity_max = 10.0;
    Xoshiro256ss rng(7);
    const auto wl = tasks::generate_workload(wc, rng);
    sched::SimBackend backend(cluster, sim);
    const sched::PhasePipeline pipeline(*algo, *quantum);
    const sched::RunMetrics m = pipeline.run(wl, backend);

    const machine::ValidationReport vr =
        machine::validate_execution(cluster, wl);
    EXPECT_TRUE(vr.ok()) << algo->name() << ":\n" << vr.to_string();

    EXPECT_EQ(cluster.log().size(), m.scheduled);
    std::uint64_t hits = 0;
    for (const machine::CompletionRecord& rec : cluster.log()) {
      // Correction theorem: no executed task finishes past its deadline.
      EXPECT_LE(rec.end, rec.deadline) << "task " << rec.task;
      if (rec.met_deadline()) ++hits;
    }
    EXPECT_EQ(hits, m.deadline_hits);
    EXPECT_EQ(m.exec_misses, 0u);
    const BalanceSummary bs = balance_summary(cluster);
    EXPECT_EQ(bs.busy_ms.count(), 4u);
  }
}

TEST(PeriodicBurstWorkloadTest, BurstsAtRegularIntervals) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 35;
  wc.num_processors = 2;
  wc.arrival = tasks::ArrivalPattern::kPeriodicBurst;
  wc.burst_size = 10;
  wc.burst_interval = msec(5);
  Xoshiro256ss rng(8);
  const auto wl = tasks::generate_workload(wc, rng);
  ASSERT_EQ(wl.size(), 35u);
  for (std::size_t i = 0; i < wl.size(); ++i) {
    EXPECT_EQ(wl[i].arrival, SimTime::zero() + msec(5) * std::int64_t(i / 10));
  }
}

TEST(PeriodicBurstWorkloadTest, Validation) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 10;
  wc.num_processors = 2;
  wc.arrival = tasks::ArrivalPattern::kPeriodicBurst;
  wc.burst_size = 0;
  Xoshiro256ss rng(9);
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
  wc.burst_size = 5;
  wc.burst_interval = SimDuration::zero();
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
}

}  // namespace
}  // namespace rtds::exp
