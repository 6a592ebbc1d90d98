#include "sched/trace.h"

#include <ostream>

namespace rtds::sched {

void PhaseTraceRecorder::on_phase(const PhaseRecord& record) {
  records_.push_back(record);
}

void PhaseTraceRecorder::write_csv(std::ostream& os) const {
  os << "phase,start_us,end_us,batch,arrivals,culled,admission_rejected,"
        "min_slack_us,"
        "min_load_us,quantum_us,budget,floor_override,vertices,expansions,"
        "backtracks,max_depth,dead_end,leaf,budget_exhausted,scheduled,"
        "delivered,overflow_drops,readmitted,rejected,search_wall_ns,"
        "algorithm\n";
  for (const PhaseRecord& r : records_) {
    os << r.index << ',' << r.start.us << ',' << r.end.us << ','
       << r.batch_size << ',' << r.arrivals << ',' << r.culled << ','
       << r.admission_rejected << ','
       << r.min_slack.us << ',' << r.min_load.us << ',' << r.quantum.us
       << ',' << r.vertex_budget << ','
       << (r.quantum_floor_override ? 1 : 0) << ','
       << r.search.vertices_generated << ','
       << r.search.expansions << ',' << r.search.backtracks << ','
       << r.search.max_depth << ',' << (r.search.dead_end ? 1 : 0) << ','
       << (r.search.reached_leaf ? 1 : 0) << ','
       << (r.search.budget_exhausted ? 1 : 0) << ',' << r.scheduled << ','
       << r.delivered << ',' << r.overflow_drops << ',' << r.readmitted
       << ',' << r.rejected << ',' << r.search_wall_ns << ','
       << r.algorithm << '\n';
  }
}

}  // namespace rtds::sched
