// Invariant oracles for the stress/fuzz harness.
//
// Each oracle re-derives one guarantee of the system from observable run
// state and appends a human-readable violation line on any breach. They are
// deliberately independent of the code that produced the state (the
// machine::Validator re-prices every execution record from first
// principles; the conservation oracle re-balances the ledger against the
// aggregate metrics) so a bookkeeping bug cannot validate itself.
//
// Registry (see docs/FUZZING.md):
//   correction-theorem  exec_misses == 0 on the DES backends — a committed
//                       task never misses during execution (Sec. 4.3)
//   conservation        total == hits + exec_misses + culled + rejected,
//                       ledger terminal states, and the transition-event
//                       cross-checks (schedule = deliver + drop + reject)
//   schedule-validity   machine::Validator over the full execution log
//   quantum-bound       Q_s(j) == clamp(max(Min_Slack, Min_Load)) per phase
//                       unless the progress floor bound it — and the
//                       quantum_floor_overrides counter matches exactly
//   metric-parity       field-for-field RunMetrics equality between two
//                       deterministic runs of the same workload, each on
//                       a fresh machine (catches state leaking across runs)
//   threaded-parity     scheduled/culled/hit agreement between the DES and
//                       the threaded backend on parity-class scenarios
//   stream-accounting   streaming runs: one schedule-latency sample per
//                       accepted delivery (histogram count == scheduled)
//   gang-occupancy      gang jobs occupy exactly their contiguous worker
//                       block, are never split, and no instant commits
//                       more worker-slots than the machine has
#pragma once

#include <string>
#include <vector>

#include "machine/cluster.h"
#include "machine/validator.h"
#include "sched/ledger.h"
#include "sched/pipeline.h"
#include "sched/trace.h"
#include "testing/scenario.h"

namespace rtds::testing {

/// Everything one backend run exposes to the oracles.
struct BackendRun {
  std::string name;  ///< "sim", "rerun", "shard[2]", "threaded"
  sched::RunMetrics metrics;
  sched::LedgerCounts ledger;
  std::vector<sched::PhaseRecord> phases;
  bool has_ledger{false};
  bool has_phases{false};

  // Schedule-latency digest of a streaming run (open scenarios only): the
  // full bucket vector plus the edge counters, so two DES runs can be
  // compared sample-for-sample and the total cross-checked against the
  // delivery count.
  bool has_latency{false};
  std::uint64_t latency_count{0};
  std::uint64_t latency_underflow{0};
  std::uint64_t latency_overflow{0};
  std::vector<std::uint64_t> latency_buckets;
};

/// The names above, in evaluation order (for the driver's summary).
const std::vector<std::string>& oracle_names();

/// exec_misses == 0: the correction theorem, on backends with a virtual
/// clock (the threaded backend is judged against wall-clock jitter and is
/// exempt — see docs/FUZZING.md).
void oracle_correction_theorem(const BackendRun& run,
                               std::vector<std::string>& out);

/// Task conservation + ledger/metrics agreement + transition-event
/// cross-checks.
void oracle_conservation(const BackendRun& run,
                         std::vector<std::string>& out);

/// machine::Validator over the cluster's execution log.
void oracle_schedule_validity(const std::string& name,
                              const machine::Cluster& cluster,
                              const std::vector<tasks::Task>& workload,
                              std::vector<std::string>& out);

/// Per-phase Q_s audit against the scenario's quantum policy, plus exact
/// agreement of the floor-override counter.
void oracle_quantum_bound(const Scenario& scenario, const BackendRun& run,
                          std::vector<std::string>& out);

/// Field-for-field RunMetrics equality (deterministic runs only).
void oracle_metric_parity(const BackendRun& a, const BackendRun& b,
                          std::vector<std::string>& out);

/// scheduled / culled / deadline_hits agreement for parity-class scenarios.
void oracle_threaded_parity(const BackendRun& sim, const BackendRun& threaded,
                            std::vector<std::string>& out);

/// Streaming bookkeeping: every accepted delivery contributed exactly one
/// schedule-latency sample (histogram count == RunMetrics::scheduled), on
/// any backend. No-op for runs without a latency digest.
void oracle_stream_accounting(const BackendRun& run,
                              std::vector<std::string>& out);

/// Gang/moldable occupancy, re-derived from the execution log alone: each
/// record's block [worker, worker+width) must fit the machine with the
/// width the workload declares (a gang is never split); per-worker
/// intervals must not overlap once blocks are expanded; and a sweep over
/// start/end events must never find more than num_workers occupied
/// worker-slots at any instant.
void oracle_gang_occupancy(const std::string& name,
                           const machine::Cluster& cluster,
                           const std::vector<tasks::Task>& workload,
                           std::vector<std::string>& out);

}  // namespace rtds::testing
