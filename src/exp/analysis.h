// Post-run analysis of execution logs: per-worker load balance — the
// quantity behind the paper's qualitative statement "many processors
// remain idle while others are heavily loaded" (Sec. 3).
#pragma once

#include <cstdint>

#include "common/stats.h"
#include "machine/cluster.h"

namespace rtds::exp {

/// Load-balance metrics over workers at the end of a run.
struct BalanceSummary {
  RunningStats busy_ms;  ///< per-worker busy time
  double imbalance{0.0}; ///< (max - min) / max busy time; 0 = perfect
  std::uint32_t idle_workers{0};  ///< workers that executed nothing
};

BalanceSummary balance_summary(const machine::Cluster& cluster);

}  // namespace rtds::exp
