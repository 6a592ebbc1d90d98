#include "db/transaction.h"

#include <cmath>
#include <utility>

#include "common/error.h"

namespace rtds::db {

std::vector<Transaction> generate_transactions(
    const GlobalDatabase& database, const TransactionWorkloadConfig& config,
    Xoshiro256ss& rng) {
  const DatabaseConfig& db = database.config();
  const std::uint32_t max_preds =
      config.max_predicates == 0 ? db.num_attributes : config.max_predicates;
  RTDS_REQUIRE(max_preds <= db.num_attributes,
               "generate_transactions: more predicates than attributes");

  const std::uint32_t n = db.num_attributes;
  std::vector<std::uint32_t> attrs(n);  // partial Fisher-Yates buffer
  std::vector<Transaction> out(config.num_transactions);
  for (std::uint32_t i = 0; i < config.num_transactions; ++i) {
    Transaction& txn = out[i];
    txn.id = i;
    txn.subdb = static_cast<std::uint32_t>(
        rng.uniform_int(0, std::int64_t(db.num_subdbs) - 1));

    // A distinct uniform sample of num_preds attributes, in shuffle
    // order: the draws of Xoshiro256ss::sample_indices, without its
    // per-call vector. Every attribute is drawn before any value.
    const auto num_preds = static_cast<std::uint32_t>(
        rng.uniform_int(1, std::int64_t(max_preds)));
    for (std::uint32_t a = 0; a < n; ++a) attrs[a] = a;
    for (std::uint32_t k = 0; k < num_preds; ++k) {
      const auto j = static_cast<std::uint32_t>(
          rng.uniform_int(std::int64_t(k), std::int64_t(n) - 1));
      std::swap(attrs[k], attrs[j]);
    }
    txn.predicates.reserve(num_preds);
    for (std::uint32_t k = 0; k < num_preds; ++k) {
      Predicate p;
      p.attribute = attrs[k];
      const auto offset = static_cast<std::uint32_t>(
          rng.uniform_int(0, std::int64_t(db.domain_size) - 1));
      p.value = database.encode(txn.subdb, p.attribute, offset);
      txn.predicates.push_back(p);
    }
  }
  return out;
}

Task to_task(const Transaction& txn, const GlobalDatabase& database,
             const Placement& placement,
             const TransactionWorkloadConfig& config, tasks::TaskId id) {
  RTDS_REQUIRE(config.scaling_factor > 0.0, "to_task: SF must be positive");
  RTDS_REQUIRE(config.deadline_multiplier > 0.0,
               "to_task: deadline multiplier must be positive");
  Task t;
  t.id = id;
  t.arrival = config.burst_arrival;
  t.processing = database.estimate_cost(txn);
  const double window = config.scaling_factor * config.deadline_multiplier *
                        double(t.processing.us);
  // 0x1p63 is the first double past INT64_MAX, so anything below it rounds
  // into range; a larger or non-finite window would overflow llround.
  RTDS_REQUIRE(std::isfinite(window) && window < 0x1p63,
               "to_task: deadline window SF x multiplier x p does not fit "
               "in int64 microseconds");
  t.deadline = t.arrival + SimDuration{std::int64_t(std::llround(window))};
  t.affinity = placement.holders(txn.subdb);
  RTDS_ASSERT_MSG(!t.affinity.empty(), "sub-database with no holder");
  if (config.fill_actual_costs) {
    t.actual_processing = database.actual_cost(txn, config.query_mode);
    RTDS_ASSERT(t.actual_processing <= t.processing);
  }
  return t;
}

std::vector<Task> to_tasks(const std::vector<Transaction>& txns,
                           const GlobalDatabase& database,
                           const Placement& placement,
                           const TransactionWorkloadConfig& config) {
  std::vector<Task> out;
  out.reserve(txns.size());
  tasks::TaskId id = config.first_task_id;
  for (const Transaction& txn : txns) {
    out.push_back(to_task(txn, database, placement, config, id++));
  }
  return out;
}

}  // namespace rtds::db
