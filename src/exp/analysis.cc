#include "exp/analysis.h"

#include <sstream>

namespace rtds::exp {

std::string LatenessSummary::to_string() const {
  std::ostringstream os;
  os << "executed " << executed << " (hits " << hits << ", misses " << misses
     << ")";
  if (executed > 0) {
    os << ", margin mean " << margin_ms.mean() << "ms";
  }
  if (misses > 0) {
    os << ", tardiness mean " << tardiness_ms.mean() << "ms max "
       << tardiness_ms.max() << "ms";
  }
  return os.str();
}

LatenessSummary lateness_summary(
    const std::vector<machine::CompletionRecord>& log) {
  LatenessSummary out;
  for (const machine::CompletionRecord& rec : log) {
    ++out.executed;
    const double margin_ms = (rec.deadline - rec.end).millis();
    out.margin_ms.add(margin_ms);
    if (rec.met_deadline()) {
      ++out.hits;
    } else {
      ++out.misses;
      out.tardiness_ms.add(-margin_ms);
    }
  }
  return out;
}

std::string ConservationReport::to_string() const {
  std::ostringstream os;
  os << "offered " << total << " = hits " << deadline_hits
     << " + exec misses " << exec_misses << " + culled " << culled
     << " + rejected " << rejected;
  if (admission_rejected > 0) {
    os << " + admission rejected " << admission_rejected;
  }
  if (unaccounted > 0) {
    os << " + UNACCOUNTED " << unaccounted << " (conservation violated)";
  }
  return os.str();
}

ConservationReport conservation_report(const sched::TaskLedger& ledger) {
  ConservationReport out;
  const sched::LedgerCounts& c = ledger.counts();
  out.total = c.total;
  out.deadline_hits = c.deadline_hits;
  out.exec_misses = c.exec_misses;
  out.culled = c.culled;
  out.rejected = c.rejected;
  out.admission_rejected = c.admission_rejected;
  out.unaccounted = c.in_flight;
  return out;
}

ConservationReport conservation_report(const sched::RunMetrics& metrics) {
  ConservationReport out;
  out.total = metrics.total_tasks;
  out.deadline_hits = metrics.deadline_hits;
  out.exec_misses = metrics.exec_misses;
  out.culled = metrics.culled;
  out.rejected = metrics.rejected;
  out.admission_rejected = metrics.admission_rejected;
  const std::uint64_t accounted = out.deadline_hits + out.exec_misses +
                                  out.culled + out.rejected +
                                  out.admission_rejected;
  out.unaccounted = out.total > accounted ? out.total - accounted : 0;
  return out;
}

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
