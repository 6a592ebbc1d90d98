#include "db/transaction.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"

namespace rtds::db {
namespace {

DatabaseConfig paper_config() {
  DatabaseConfig cfg;  // defaults are the paper's: 10 x 1000 x 10
  cfg.check_cost = usec(20);
  return cfg;
}

TEST(GenerateTransactionsTest, CountAndIds) {
  Xoshiro256ss rng(1);
  const GlobalDatabase db(paper_config(), rng);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 250;
  const auto txns = generate_transactions(db, cfg, rng);
  ASSERT_EQ(txns.size(), 250u);
  for (std::uint32_t i = 0; i < txns.size(); ++i) {
    EXPECT_EQ(txns[i].id, i);
  }
}

TEST(GenerateTransactionsTest, PredicatesWellFormed) {
  Xoshiro256ss rng(2);
  const GlobalDatabase db(paper_config(), rng);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 500;
  for (const Transaction& txn : generate_transactions(db, cfg, rng)) {
    EXPECT_GE(txn.predicates.size(), 1u);
    EXPECT_LE(txn.predicates.size(), 10u);
    std::set<std::uint32_t> attrs;
    for (const Predicate& p : txn.predicates) {
      EXPECT_LT(p.attribute, 10u);
      EXPECT_TRUE(attrs.insert(p.attribute).second);  // distinct attributes
      // Values belong to the transaction's sub-database and attribute.
      EXPECT_EQ(db.owner_subdb(p.value), txn.subdb);
      EXPECT_EQ(db.attribute_of(p.value), p.attribute);
    }
  }
}

TEST(GenerateTransactionsTest, SubDatabasesRoughlyUniform) {
  Xoshiro256ss rng(3);
  const GlobalDatabase db(paper_config(), rng);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 5000;
  std::vector<int> counts(10, 0);
  for (const Transaction& txn : generate_transactions(db, cfg, rng)) {
    ++counts[txn.subdb];
  }
  for (int c : counts) EXPECT_NEAR(c, 500, 120);
}

TEST(GenerateTransactionsTest, MaxPredicatesHonored) {
  Xoshiro256ss rng(4);
  const GlobalDatabase db(paper_config(), rng);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 200;
  cfg.max_predicates = 2;
  for (const Transaction& txn : generate_transactions(db, cfg, rng)) {
    EXPECT_LE(txn.predicates.size(), 2u);
  }
  cfg.max_predicates = 11;
  EXPECT_THROW(generate_transactions(db, cfg, rng), InvalidArgument);
}

TEST(ToTaskTest, DeadlineFollowsPaperFormula) {
  Xoshiro256ss rng(5);
  const GlobalDatabase db(paper_config(), rng);
  const Placement placement = Placement::rotation(10, 10, 0.3);
  TransactionWorkloadConfig cfg;
  cfg.scaling_factor = 2.0;
  cfg.deadline_multiplier = 10.0;
  cfg.burst_arrival = SimTime::zero() + msec(7);
  const auto txns = generate_transactions(db, cfg, rng);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const tasks::Task t = to_task(txns[i], db, placement, cfg, i);
    EXPECT_EQ(t.processing, db.estimate_cost(txns[i]));
    EXPECT_EQ(t.arrival, cfg.burst_arrival);
    // Deadline window = SF * 10 * cost.
    EXPECT_EQ((t.deadline - t.arrival).us, 20 * t.processing.us);
    EXPECT_EQ(t.affinity, placement.holders(txns[i].subdb));
  }
}

TEST(ToTaskTest, ValidatesConfig) {
  Xoshiro256ss rng(6);
  const GlobalDatabase db(paper_config(), rng);
  const Placement placement = Placement::rotation(10, 4, 0.5);
  TransactionWorkloadConfig cfg;
  const auto txns = generate_transactions(db, cfg, rng);
  cfg.scaling_factor = 0.0;
  EXPECT_THROW(to_task(txns[0], db, placement, cfg, 0), InvalidArgument);
  cfg.scaling_factor = 1.0;
  cfg.deadline_multiplier = -1.0;
  EXPECT_THROW(to_task(txns[0], db, placement, cfg, 0), InvalidArgument);
}

TEST(ToTaskTest, RejectsDeadlineWindowPastInt64) {
  Xoshiro256ss rng(6);
  const GlobalDatabase db(paper_config(), rng);
  const Placement placement = Placement::rotation(10, 4, 0.5);
  TransactionWorkloadConfig cfg;
  const auto txns = generate_transactions(db, cfg, rng);
  cfg.scaling_factor = 1e300;  // window overflows int64 microseconds
  EXPECT_THROW(to_task(txns[0], db, placement, cfg, 0), InvalidArgument);
  cfg.scaling_factor = 1e308;
  cfg.deadline_multiplier = 1e308;  // window is +inf
  EXPECT_THROW(to_task(txns[0], db, placement, cfg, 0), InvalidArgument);
  cfg.scaling_factor = 1e6;  // a wide but representable window still works
  cfg.deadline_multiplier = 10.0;
  const tasks::Task t = to_task(txns[0], db, placement, cfg, 0);
  EXPECT_EQ((t.deadline - t.arrival).us, 10'000'000 * t.processing.us);
}

TEST(ToTasksTest, SequentialIdsAndSizes) {
  Xoshiro256ss rng(7);
  const GlobalDatabase db(paper_config(), rng);
  const Placement placement = Placement::rotation(10, 6, 0.5);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 100;
  cfg.first_task_id = 500;
  const auto txns = generate_transactions(db, cfg, rng);
  const auto tasks = to_tasks(txns, db, placement, cfg);
  ASSERT_EQ(tasks.size(), 100u);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(tasks[i].id, 500 + i);
  }
}

TEST(ToTasksTest, KeyTransactionsAreCheaperThanScans) {
  Xoshiro256ss rng(8);
  const GlobalDatabase db(paper_config(), rng);
  const Placement placement = Placement::rotation(10, 10, 0.3);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 1000;
  const auto txns = generate_transactions(db, cfg, rng);
  const auto tasks = to_tasks(txns, db, placement, cfg);
  double key_total = 0, scan_total = 0;
  std::uint32_t key_n = 0, scan_n = 0;
  for (std::uint32_t i = 0; i < txns.size(); ++i) {
    if (txns[i].references_key()) {
      key_total += double(tasks[i].processing.us);
      ++key_n;
    } else {
      scan_total += double(tasks[i].processing.us);
      ++scan_n;
    }
  }
  ASSERT_GT(key_n, 0u);
  ASSERT_GT(scan_n, 0u);
  EXPECT_LT(key_total / key_n, scan_total / scan_n / 10.0);
  // Every scan transaction costs exactly r/d checks.
  for (std::uint32_t i = 0; i < txns.size(); ++i) {
    if (!txns[i].references_key()) {
      EXPECT_EQ(tasks[i].processing, usec(20) * 1000);
    }
  }
}

TEST(TransactionExecutionTest, EstimateBoundsActualWorkAcrossStream) {
  // End-to-end property over a large stream: worst-case estimate >= actual
  // checked tuples, and executing the transaction touches only its subdb.
  Xoshiro256ss rng(9);
  const GlobalDatabase db(paper_config(), rng);
  TransactionWorkloadConfig cfg;
  cfg.num_transactions = 500;
  for (const Transaction& txn : generate_transactions(db, cfg, rng)) {
    const QueryResult qr = db.execute(txn);
    const auto bound = db.estimate_cost(txn) / paper_config().check_cost;
    EXPECT_LE(qr.checked, std::uint64_t(bound));
  }
}

}  // namespace
}  // namespace rtds::db
