// Experiment harness reproducing the paper's evaluation protocol (Sec. 5.1):
// a distributed real-time database workload is generated, scheduled by a
// candidate algorithm on a simulated distributed-memory machine, and the
// deadline-hit ratio is averaged over `repetitions` independent runs with
// derived seeds. Two-tailed Welch difference-of-means tests compare
// algorithms at the paper's 0.01 significance level.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/time.h"
#include "db/database.h"
#include "db/transaction.h"
#include "machine/cluster.h"
#include "sched/algorithm.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"

namespace rtds::exp {

/// Which quantum policy the run uses.
enum class QuantumKind { kSelfAdjusting, kFixed };

/// Full description of one experiment cell (one point in a figure).
struct ExperimentConfig {
  // -- machine --------------------------------------------------------------
  std::uint32_t num_workers{10};
  /// C — constant cut-through communication cost for non-affine placement.
  SimDuration comm_cost{msec(5)};

  // -- scheduling-cost model --------------------------------------------------
  /// Host time per generated vertex. 2us per allocate+evaluate+test is the
  /// right order for late-90s hardware and puts the reproduction in the
  /// regime the paper studies: the assignment-oriented scheduler becomes
  /// capacity-bound while the sequence-oriented one stays host-bound.
  SimDuration vertex_cost{usec(2)};
  /// Fixed per-phase turnover cost (batch maintenance + schedule delivery).
  SimDuration phase_overhead{usec(50)};

  // -- quantum policy ---------------------------------------------------------
  QuantumKind quantum{QuantumKind::kSelfAdjusting};
  SimDuration min_quantum{usec(100)};
  /// Upper clamp on Q_s. The feasibility test charges the entire quantum
  /// against every candidate (Fig. 4), so a quantum much larger than
  /// typical slacks would make everything infeasible; 20ms is an order
  /// below the scan-transaction deadlines.
  SimDuration max_quantum{msec(20)};
  SimDuration fixed_quantum{msec(10)};  ///< used when quantum == kFixed

  // -- database & workload (paper defaults) -----------------------------------
  db::DatabaseConfig database;
  double replication_rate{0.3};
  /// Resource-reclaiming extension (paper ref [3]): execute actual
  /// first-match costs and reclaim the worst-case slack on the workers.
  bool reclaim_actual_costs{false};
  double scaling_factor{1.0};  ///< SF (laxity)
  std::uint32_t num_transactions{1000};
  std::uint32_t max_predicates{0};  ///< 0 = num_attributes
  /// Gang/moldable extension: each generated task becomes a gang with this
  /// probability, width uniform in [2, gang_max_workers]. Drawn AFTER the
  /// full database workload so runs with gang_fraction == 0 reproduce the
  /// historical task stream byte-for-byte.
  double gang_fraction{0.0};
  std::uint32_t gang_max_workers{2};

  // -- protocol ----------------------------------------------------------------
  std::uint64_t base_seed{0x5ADC0FFEE1998ULL};
  std::uint32_t repetitions{10};

  [[nodiscard]] std::unique_ptr<sched::QuantumPolicy> make_quantum() const;
  /// The idle machine of one run: cut-through at `comm_cost`, executing
  /// worst-case or reclaimed costs as `reclaim_actual_costs` says.
  [[nodiscard]] machine::Cluster make_cluster() const;
};

/// Aggregated outcome of the repeated runs of one (config, algorithm) cell.
struct Aggregate {
  std::string algorithm;
  RunningStats hit_ratio;        ///< fraction of tasks meeting deadlines
  RunningStats scheduled_ratio;  ///< fraction of tasks ever delivered
  RunningStats exec_misses;      ///< theorem: identically zero
  RunningStats culled;
  RunningStats phases;
  RunningStats dead_ends;
  RunningStats backtracks_per_phase;
  RunningStats vertices;
  RunningStats sched_time_ms;    ///< host scheduling busy time
  RunningStats makespan_ms;
  RunningStats mean_quantum_ms;  ///< average allocated Q_s(j)
};

/// Draws one seed's task stream: database, placement, transactions, tasks,
/// then the gang widening. Every run of a cell builds its workload here.
std::vector<tasks::Task> make_workload(const ExperimentConfig& config,
                                       std::uint64_t seed);

/// Schedules `workload` on `cluster` through a fresh simulator, with the
/// config's quantum policy and scheduling-cost model.
sched::RunMetrics run_workload(const ExperimentConfig& config,
                               const sched::PhaseAlgorithm& algorithm,
                               const std::vector<tasks::Task>& workload,
                               machine::Cluster& cluster,
                               sched::PhaseObserver* observer = nullptr);

/// Runs one seed of one cell: make_workload() on a fresh make_cluster().
sched::RunMetrics run_once(const ExperimentConfig& config,
                           const sched::PhaseAlgorithm& algorithm,
                           std::uint64_t seed);

/// Runs `config.repetitions` seeds and aggregates.
Aggregate run_repeated(const ExperimentConfig& config,
                       const sched::PhaseAlgorithm& algorithm);

/// Welch test on the hit ratios of two aggregates (paper's significance
/// protocol).
WelchResult compare_hit_ratios(const Aggregate& a, const Aggregate& b);

}  // namespace rtds::exp
