// Determinism: the same scenario replayed twice yields identical results —
// the property every replay token and every CI failure report depends on.
//
// The DES backends must agree field-for-field (RunMetrics is compared via
// the metric-parity oracle, so any drift names the exact field). The
// threaded backend runs on the wall clock, so only its clock-independent
// counts are required to be stable, and only on parity-class workloads
// whose laxity dwarfs scheduling jitter (see docs/FUZZING.md).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/harness.h"
#include "testing/oracles.h"
#include "testing/scenario.h"

namespace rtds::testing {
namespace {

TEST(DeterminismTest, SameScenarioSameMetricsOnDesBackends) {
  HarnessOptions opts;
  opts.run_threaded = false;
  for (const std::uint64_t index : {0ULL, 7ULL, 23ULL, 41ULL}) {
    const Scenario s = generate_scenario(0xD5EED, index);
    const ScenarioResult r1 = run_scenario(s, opts);
    const ScenarioResult r2 = run_scenario(s, opts);
    EXPECT_EQ(r1.token, r2.token);
    std::vector<std::string> diffs;
    oracle_metric_parity(r1.sim, r2.sim, diffs);
    oracle_metric_parity(r1.rerun, r2.rerun, diffs);
    EXPECT_TRUE(diffs.empty()) << "scenario " << index << " drifted:\n  "
                               << diffs.front();
    EXPECT_EQ(r1.violations, r2.violations);
  }
}

TEST(DeterminismTest, OpenScenarioReplaysIdenticallyOnDesBackends) {
  // Streaming runs must replay like closed ones: same seed + rate + algo
  // spec gives the identical phase trace AND the identical schedule-latency
  // histogram (compared bucket-for-bucket by the metric-parity oracle).
  HarnessOptions opts;
  opts.run_threaded = false;
  for (const std::uint32_t kind : {kOpenPoisson, kOpenOnOff, kOpenSporadic}) {
    Scenario s = generate_scenario(0x0D5EED, 3);
    s.open_arrival = kind;
    s.num_shards = 1;
    s.max_pending = 8;
    const ScenarioResult r1 = run_scenario(s, opts);
    const ScenarioResult r2 = run_scenario(s, opts);
    EXPECT_TRUE(r1.ok()) << r1.to_string();
    ASSERT_TRUE(r1.sim.has_latency);
    std::vector<std::string> diffs;
    oracle_metric_parity(r1.sim, r2.sim, diffs);
    oracle_metric_parity(r1.rerun, r2.rerun, diffs);
    EXPECT_TRUE(diffs.empty()) << "open kind " << kind << " drifted:\n  "
                               << diffs.front();
    EXPECT_EQ(r1.violations, r2.violations);
    ASSERT_EQ(r1.sim.phases.size(), r2.sim.phases.size());
    for (std::size_t i = 0; i < r1.sim.phases.size(); ++i) {
      EXPECT_EQ(r1.sim.phases[i].start, r2.sim.phases[i].start);
      EXPECT_EQ(r1.sim.phases[i].quantum, r2.sim.phases[i].quantum);
      EXPECT_EQ(r1.sim.phases[i].arrivals, r2.sim.phases[i].arrivals);
      EXPECT_EQ(r1.sim.phases[i].admission_rejected,
                r2.sim.phases[i].admission_rejected);
    }
  }
}

TEST(DeterminismTest, ThreadedStreamingCountsStableOnForgivingWorkload) {
  // The threaded backend pulls the same deterministic task stream; with
  // laxity far beyond wall-clock jitter its terminal counts are stable and
  // the latency digest stays one-sample-per-delivery (stream-accounting
  // oracle, enforced inside run_scenario).
  Scenario s;
  s.open_arrival = kOpenOnOff;
  s.num_tasks = 24;
  s.workers = 4;
  s.num_shards = 1;
  s.stream_mean_gap_us = 200;
  s.stream_burst_len = 6;
  s.stream_off_us = 3000;
  s.max_pending = 0;
  s.max_start_offset_us = 0;
  s.reclaim = 0;
  s.laxity_min_centi = 5'000'000;
  s.laxity_max_centi = 5'000'000;
  s.refusal_period = 0;
  s.mailbox_capacity = 1024;
  s.delivery_retries = 3;

  const ScenarioResult r1 = run_scenario(s, HarnessOptions{});
  const ScenarioResult r2 = run_scenario(s, HarnessOptions{});
  ASSERT_TRUE(r1.threaded_ran);
  ASSERT_TRUE(r2.threaded_ran);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_TRUE(r2.ok()) << r2.to_string();
  ASSERT_TRUE(r1.threaded.has_latency);
  EXPECT_EQ(r1.threaded.latency_count, r1.threaded.metrics.scheduled);
  EXPECT_EQ(r1.threaded.metrics.scheduled, r2.threaded.metrics.scheduled);
  EXPECT_EQ(r1.threaded.metrics.culled, r2.threaded.metrics.culled);
  EXPECT_EQ(r1.threaded.metrics.deadline_hits,
            r2.threaded.metrics.deadline_hits);
  EXPECT_EQ(r1.threaded.metrics.total_tasks, s.num_tasks);
}

TEST(DeterminismTest, ThreadedCountsStableOnParityWorkload) {
  Scenario s;
  s.parity_class = 1;
  s.num_tasks = 24;
  s.workers = 4;
  s.num_shards = 1;
  s.arrival_kind = kArrivalBursty;
  s.max_start_offset_us = 0;
  s.reclaim = 0;
  // Laxity in the tens of seconds: deadlines sit far beyond any plausible
  // wall-clock jitter, so scheduled/culled/hit counts are deterministic.
  s.laxity_min_centi = 5'000'000;
  s.laxity_max_centi = 5'000'000;
  s.refusal_period = 0;
  s.mailbox_capacity = 1024;
  s.delivery_retries = 3;

  const ScenarioResult r1 = run_scenario(s, HarnessOptions{});
  const ScenarioResult r2 = run_scenario(s, HarnessOptions{});
  ASSERT_TRUE(r1.threaded_ran);
  ASSERT_TRUE(r2.threaded_ran);
  // ok() already enforces threaded-parity against the sim run; here we
  // additionally pin run-to-run stability of the threaded counts.
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_TRUE(r2.ok()) << r2.to_string();
  EXPECT_EQ(r1.threaded.metrics.scheduled, r2.threaded.metrics.scheduled);
  EXPECT_EQ(r1.threaded.metrics.culled, r2.threaded.metrics.culled);
  EXPECT_EQ(r1.threaded.metrics.deadline_hits,
            r2.threaded.metrics.deadline_hits);
  // Phase COUNT is deliberately not compared: arrivals land on the wall
  // clock, so phase boundaries may fall differently between runs even
  // though every task ends in the same terminal state.
}

}  // namespace
}  // namespace rtds::testing
