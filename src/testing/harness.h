// Cross-backend differential fuzz harness.
//
// run_scenario() drives ONE Scenario through the three ExecutionBackend
// deployments of the phase pipeline and evaluates the oracle registry
// (testing/oracles.h) over everything observable:
//
//   sim          SimBackend (DES) — ledger + phase trace + execution-log
//                validation; fault injection via FaultInjectingBackend
//   rerun        SimBackend on a fresh machine and clock — must match the
//                sim run field-for-field (metric-parity oracle), which
//                catches state leaking across runs; the same injected
//                refusal sequence is applied so overload paths stay in
//                lockstep. When the scenario shards > 1, an additional
//                multi-shard run_partitioned() audits per-shard theorem +
//                cross-shard conservation.
//   threaded     runtime::ThreadedBackend — real threads, wall clock;
//                conservation always, count parity on parity-class
//                scenarios (deadlines far beyond wall-clock jitter)
//
// Open scenarios (Scenario::open_arrival != 0) drive every backend through
// PhasePipeline::run_stream instead: each run pulls the identical
// deterministic task stream from its own ArrivalSource, admission control
// applies scenario.max_pending, and the schedule-latency digest is checked
// by the stream-accounting oracle (and sample-for-sample DES parity).
//
// Any InvariantViolation thrown inside the library (the pipeline's own
// asserts, the ledger's transition checks) is caught and reported as a
// violation of that backend's run rather than aborting the sweep, so the
// shrinker can minimize crashing scenarios too.
//
// HarnessOptions::mutation deliberately corrupts the observed state AFTER a
// run — it exists so the test suite can prove the oracles actually fire and
// the shrinker actually minimizes (a fuzzer whose failure path is never
// exercised is worse than none).
#pragma once

#include <string>
#include <vector>

#include "testing/oracles.h"
#include "testing/scenario.h"

namespace rtds::testing {

/// Self-test fault injection: corrupts observed run state before the
/// oracles see it, simulating the bug class each oracle exists to catch.
enum class Mutation {
  kNone,
  /// Silently lose one deadline hit from the sim run's books — the PR-1
  /// mailbox-overflow bug class. Caught by the conservation oracle.
  kLoseHit,
  /// Inflate one phase's recorded Q_s — caught by the quantum-bound oracle.
  kCorruptQuantum,
  /// Hand the gang-occupancy oracle a doctored workload whose executed gang
  /// tasks declare one worker more than they were given — the split-gang
  /// bug class. Fires ONLY when a gang actually executed, which is what
  /// makes it the seed for the shrinker's gang-preservation test: a shrink
  /// candidate that drops the gang dial also drops the failure, so the
  /// minimal scenario must keep a gang.
  kCorruptGangWidth,
};

struct HarnessOptions {
  bool run_threaded{true};
  /// Wall-clock compression for the threaded backend (execution sleeps are
  /// scaled by this; the DES figures are unaffected).
  double threaded_time_scale{0.02};
  Mutation mutation{Mutation::kNone};
};

/// Outcome of one scenario across all backends.
struct ScenarioResult {
  Scenario scenario;
  std::string token;  ///< replay token (encode_token(scenario))
  std::vector<std::string> violations;

  BackendRun sim;
  BackendRun rerun;
  BackendRun threaded;
  std::vector<BackendRun> shard_runs;  ///< multi-shard audit (shards > 1)
  bool threaded_ran{false};

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

ScenarioResult run_scenario(const Scenario& scenario,
                            const HarnessOptions& options = {});

}  // namespace rtds::testing
