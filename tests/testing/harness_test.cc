// The harness self-test: clean scenarios pass every oracle, deliberately
// injected bugs are caught, and the shrinker reduces a failing case to a
// replayable minimal scenario. A fuzzer whose failure path is never
// exercised proves nothing — this suite is the evidence the oracles fire.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "testing/harness.h"
#include "testing/scenario.h"
#include "testing/shrink.h"

namespace rtds::testing {
namespace {

bool any_violation_contains(const ScenarioResult& r, const std::string& what) {
  return std::any_of(r.violations.begin(), r.violations.end(),
                     [&](const std::string& v) {
                       return v.find(what) != std::string::npos;
                     });
}

HarnessOptions des_only() {
  HarnessOptions opts;
  opts.run_threaded = false;
  return opts;
}

TEST(HarnessTest, DefaultScenarioPassesAllOracles) {
  const Scenario s;
  const ScenarioResult r = run_scenario(s, des_only());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.sim.metrics.total_tasks, s.num_tasks);
  EXPECT_GT(r.sim.metrics.deadline_hits, 0u);
  EXPECT_TRUE(r.sim.has_ledger);
  EXPECT_TRUE(r.sim.has_phases);
  EXPECT_EQ(r.token, encode_token(s));
}

TEST(HarnessTest, FaultInjectionExercisesReadmissionAndStaysConserved) {
  Scenario s;
  s.refusal_period = 2;  // refuse every 2nd delivery on every backend
  const ScenarioResult r = run_scenario(s, des_only());
  EXPECT_TRUE(r.ok()) << r.to_string();
  // The injected refusals must actually drive the overload machinery —
  // and sim/rerun stay in exact parity through it (checked by ok()).
  EXPECT_GT(r.sim.metrics.overflow_drops, 0u);
  EXPECT_GT(r.sim.metrics.readmissions + r.sim.metrics.rejected, 0u);
}

TEST(HarnessTest, MultiShardScenarioRunsShardAudit) {
  Scenario s;
  s.workers = 4;
  s.num_shards = 2;
  const ScenarioResult r = run_scenario(s, des_only());
  EXPECT_TRUE(r.ok()) << r.to_string();
  ASSERT_EQ(r.shard_runs.size(), 2u);
  EXPECT_EQ(r.shard_runs[0].metrics.total_tasks +
                r.shard_runs[1].metrics.total_tasks,
            s.num_tasks);
}

TEST(HarnessTest, LedgerMutationIsCaughtByConservationOracle) {
  HarnessOptions opts = des_only();
  opts.mutation = Mutation::kLoseHit;
  const ScenarioResult r = run_scenario(Scenario{}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "conservation(sim)"))
      << r.to_string();
}

TEST(HarnessTest, QuantumMutationIsCaughtByQuantumOracle) {
  HarnessOptions opts = des_only();
  opts.mutation = Mutation::kCorruptQuantum;
  const ScenarioResult r = run_scenario(Scenario{}, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "quantum-bound(sim)"))
      << r.to_string();
}

TEST(HarnessTest, CleanGangScenarioPassesAllOracles) {
  Scenario s;
  s.gang_permille = 600;
  s.gang_max_workers = 3;
  const ScenarioResult r = run_scenario(s, des_only());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.sim.metrics.deadline_hits, 0u);
}

TEST(HarnessTest, GangWidthMutationIsCaughtByGangOccupancyOracle) {
  // The mutation inflates every executed gang's declared width by one, so
  // the log shows blocks narrower than the workload demands — exactly the
  // bug class (a backend splitting a gang) this oracle exists to catch.
  HarnessOptions opts = des_only();
  opts.mutation = Mutation::kCorruptGangWidth;
  Scenario s;
  s.gang_permille = 1000;  // every task a gang: the mutation must fire
  s.gang_max_workers = 3;
  const ScenarioResult r = run_scenario(s, opts);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(any_violation_contains(r, "gang-occupancy(sim)"))
      << r.to_string();
}

TEST(HarnessTest, InjectedBugShrinksToMinimalReplayableScenario) {
  // The acceptance-criteria scenario: a deliberately injected ledger bug
  // must be caught AND shrunk to a minimal scenario whose replay token
  // round-trips. The mutation loses one deadline hit, so the true minimal
  // repro is a single task that hits — the shrinker must get close.
  HarnessOptions opts = des_only();
  opts.mutation = Mutation::kLoseHit;
  Scenario s = generate_scenario(0xB06, 4);
  s.num_tasks = std::max(s.num_tasks, 40u);
  s.run_threaded = 0;

  const ShrinkResult shrunk = shrink(s, opts, /*max_runs=*/150);
  ASSERT_FALSE(shrunk.result.ok());
  EXPECT_TRUE(any_violation_contains(shrunk.result, "conservation"));
  EXPECT_LE(shrunk.minimal.num_tasks, 2u)
      << "shrinker left " << shrunk.minimal.num_tasks << " tasks after "
      << shrunk.runs << " runs";
  EXPECT_EQ(shrunk.minimal.refusal_period, 0u);
  EXPECT_LE(shrunk.runs, 150u);

  // The minimal scenario replays from its token alone...
  const auto decoded = decode_token(shrunk.result.token);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, shrunk.minimal);
  ASSERT_FALSE(run_scenario(*decoded, opts).ok());
  // ...and passes cleanly without the injected mutation: the bug lived in
  // the books, not in the scheduler.
  EXPECT_TRUE(run_scenario(*decoded, des_only()).ok());
}

TEST(HarnessTest, ShrinkOnPassingScenarioIsANoOp) {
  const Scenario s;
  const ShrinkResult r = shrink(s, des_only(), 50);
  EXPECT_TRUE(r.result.ok());
  EXPECT_EQ(r.minimal, s);
  EXPECT_EQ(r.runs, 1u);
}

TEST(HarnessTest, ThreadedBackendRunsAndStaysConserved) {
  Scenario s;
  s.num_tasks = 24;
  s.mailbox_capacity = 2;  // force real overflow churn on the wall clock
  s.delivery_retries = 0;
  const ScenarioResult r = run_scenario(s, HarnessOptions{});
  EXPECT_TRUE(r.threaded_ran);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.threaded.metrics.total_tasks, s.num_tasks);
}

}  // namespace
}  // namespace rtds::testing
