#include "exp/analysis.h"

#include <vector>

namespace rtds::exp {

BalanceSummary balance_summary(const machine::Cluster& cluster) {
  BalanceSummary out;
  std::vector<std::uint64_t> executed(cluster.num_workers(), 0);
  for (const machine::CompletionRecord& rec : cluster.log()) {
    ++executed[rec.worker];
  }
  for (std::uint32_t k = 0; k < cluster.num_workers(); ++k) {
    out.busy_ms.add(cluster.busy_time(k).millis());
    if (executed[k] == 0) ++out.idle_workers;
  }
  if (!out.busy_ms.empty() && out.busy_ms.max() > 0.0) {
    out.imbalance = (out.busy_ms.max() - out.busy_ms.min()) /
                    out.busy_ms.max();
  }
  return out;
}

}  // namespace rtds::exp
