#include "db/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/error.h"

namespace rtds::db {
namespace {

DatabaseConfig small_config() {
  DatabaseConfig cfg;
  cfg.num_subdbs = 4;
  cfg.records_per_subdb = 200;
  cfg.num_attributes = 5;
  cfg.domain_size = 20;
  cfg.check_cost = usec(10);
  return cfg;
}

TEST(DatabaseConfigTest, Validation) {
  Xoshiro256ss rng(1);
  DatabaseConfig cfg = small_config();
  cfg.num_subdbs = 0;
  EXPECT_THROW(GlobalDatabase(cfg, rng), InvalidArgument);
  cfg = small_config();
  cfg.check_cost = SimDuration::zero();
  EXPECT_THROW(GlobalDatabase(cfg, rng), InvalidArgument);
}

TEST(GlobalDatabaseTest, PopulatesAllSubDatabases) {
  Xoshiro256ss rng(2);
  const GlobalDatabase db(small_config(), rng);
  EXPECT_EQ(db.num_subdbs(), 4u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(db.subdb(s).id(), s);
    EXPECT_EQ(db.subdb(s).num_records(), 200u);
    for (std::uint32_t r = 0; r < 200; ++r) {
      EXPECT_EQ(db.subdb(s).record(r).size(), 5u);
    }
    EXPECT_THROW(static_cast<void>(db.subdb(s).record(200)), InvalidArgument);
  }
  EXPECT_THROW(static_cast<void>(db.subdb(4)), InvalidArgument);
}

TEST(GlobalDatabaseTest, EncodingRoundTrips) {
  Xoshiro256ss rng(3);
  const GlobalDatabase db(small_config(), rng);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t a = 0; a < 5; ++a) {
      for (std::uint32_t off : {0u, 7u, 19u}) {
        const AttrValue v = db.encode(s, a, off);
        EXPECT_EQ(db.owner_subdb(v), s);
        EXPECT_EQ(db.attribute_of(v), a);
      }
    }
  }
  EXPECT_THROW(static_cast<void>(db.encode(4, 0, 0)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(db.encode(0, 5, 0)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(db.encode(0, 0, 20)), InvalidArgument);
}

TEST(GlobalDatabaseTest, DomainsAreDisjointAcrossSubDatabases) {
  // The paper's simplification: a value identifies its sub-database.
  Xoshiro256ss rng(4);
  const GlobalDatabase db(small_config(), rng);
  std::set<AttrValue> seen_values[4];
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t r = 0; r < 200; ++r) {
      for (AttrValue v : db.subdb(s).record(r)) {
        EXPECT_EQ(db.owner_subdb(v), s);
        seen_values[s].insert(v);
      }
    }
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t t = s + 1; t < 4; ++t) {
      for (AttrValue v : seen_values[s]) {
        EXPECT_EQ(seen_values[t].count(v), 0u);
      }
    }
  }
}

TEST(GlobalDatabaseTest, RecordValuesMatchDeclaredAttribute) {
  Xoshiro256ss rng(5);
  const GlobalDatabase db(small_config(), rng);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t r = 0; r < 200; ++r) {
      const auto rec = db.subdb(s).record(r);
      for (std::uint32_t a = 0; a < rec.size(); ++a) {
        EXPECT_EQ(db.attribute_of(rec[a]), a);
      }
    }
  }
}

TEST(GlobalDatabaseTest, GlobalIndexMatchesActualFrequencies) {
  Xoshiro256ss rng(6);
  const GlobalDatabase db(small_config(), rng);
  // Recount key frequencies by scanning and compare with the index.
  std::unordered_map<AttrValue, std::uint32_t> recount;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t r = 0; r < 200; ++r) {
      ++recount[db.subdb(s).record(r)[kKeyAttribute]];
    }
  }
  for (const auto& [value, freq] : recount) {
    EXPECT_EQ(db.key_frequency(value), freq);
  }
  // Absent value: frequency 0.
  EXPECT_EQ(db.key_frequency(db.encode(0, 1, 0)), 0u);
}

TEST(SubDatabaseTest, KeyLookupAgreesWithScan) {
  // Row lists equal a brute-force scan, so they are ascending, and the
  // host's frequencies equal their lengths.
  Xoshiro256ss rng(7);
  const GlobalDatabase db(small_config(), rng);
  for (std::uint32_t s = 0; s < 4; ++s) {
    const SubDatabase& sd = db.subdb(s);
    for (std::uint32_t off = 0; off < 20; ++off) {
      const AttrValue key = db.encode(s, kKeyAttribute, off);
      std::vector<std::uint32_t> scanned;
      for (std::uint32_t r = 0; r < sd.num_records(); ++r) {
        if (sd.record(r)[kKeyAttribute] == key) scanned.push_back(r);
      }
      const auto rows = sd.key_lookup(key);
      EXPECT_EQ(std::vector<std::uint32_t>(rows.begin(), rows.end()),
                scanned);
      EXPECT_EQ(db.key_frequency(key), scanned.size());
    }
  }
}

TEST(SubDatabaseTest, ExecuteWithKeyUsesIndexPath) {
  Xoshiro256ss rng(8);
  const GlobalDatabase db(small_config(), rng);
  const SubDatabase& sd = db.subdb(0);
  // Find a key value that actually occurs.
  const AttrValue key = sd.record(0)[kKeyAttribute];
  Transaction txn;
  txn.subdb = 0;
  txn.predicates = {{kKeyAttribute, key}};
  const QueryResult r = sd.execute(txn);
  EXPECT_EQ(r.checked, sd.key_lookup(key).size());
  EXPECT_EQ(r.matched, r.checked);  // single key predicate: all match
}

TEST(SubDatabaseTest, ExecuteWithoutKeyScansEverything) {
  Xoshiro256ss rng(9);
  const GlobalDatabase db(small_config(), rng);
  const SubDatabase& sd = db.subdb(2);
  Transaction txn;
  txn.subdb = 2;
  txn.predicates = {{1u, db.encode(2, 1, 3)}};
  const QueryResult r = sd.execute(txn);
  EXPECT_EQ(r.checked, 200u);
  // Matched count equals a hand scan.
  std::uint32_t expect = 0;
  for (std::uint32_t r = 0; r < sd.num_records(); ++r) {
    if (sd.record(r)[1] == txn.predicates[0].value) ++expect;
  }
  EXPECT_EQ(r.matched, expect);
}

TEST(SubDatabaseTest, ConjunctionNarrowsMatches) {
  Xoshiro256ss rng(10);
  const GlobalDatabase db(small_config(), rng);
  const SubDatabase& sd = db.subdb(0);
  const auto probe = sd.record(5);
  Transaction one;
  one.subdb = 0;
  one.predicates = {{kKeyAttribute, probe[kKeyAttribute]}};
  Transaction both;
  both.subdb = 0;
  both.predicates = {{kKeyAttribute, probe[kKeyAttribute]}, {2u, probe[2]}};
  EXPECT_GE(sd.execute(one).matched, sd.execute(both).matched);
  EXPECT_GE(sd.execute(both).matched, 1u);  // probe row itself matches
}

TEST(SubDatabaseTest, ExecuteRejectsBadAttributeBeforeInspectingTuples) {
  // The key probe finds no rows, so no tuple is ever inspected; the
  // out-of-range predicate attribute must still be refused.
  Xoshiro256ss rng(16);
  DatabaseConfig cfg = small_config();
  cfg.domain_size = 10000;
  const GlobalDatabase db(cfg, rng);
  AttrValue absent = 0;
  bool found = false;
  for (std::uint32_t off = 0; off < cfg.domain_size && !found; ++off) {
    absent = db.encode(0, kKeyAttribute, off);
    found = db.subdb(0).key_lookup(absent).empty();
  }
  ASSERT_TRUE(found);
  Transaction txn;
  txn.subdb = 0;
  txn.predicates = {{kKeyAttribute, absent}, {cfg.num_attributes, 0u}};
  for (QueryMode mode : {QueryMode::kAllMatches, QueryMode::kFirstMatch}) {
    EXPECT_THROW(static_cast<void>(db.subdb(0).execute(txn, mode)),
                 InvalidArgument);
    EXPECT_THROW(static_cast<void>(db.actual_cost(txn, mode)),
                 InvalidArgument);
  }
  txn.predicates.pop_back();
  EXPECT_EQ(db.subdb(0).execute(txn).checked, 0u);
}

TEST(EstimateCostTest, KeyTransactionUsesFrequency) {
  Xoshiro256ss rng(11);
  const GlobalDatabase db(small_config(), rng);
  const AttrValue key = db.subdb(0).record(0)[kKeyAttribute];
  Transaction txn;
  txn.subdb = 0;
  txn.predicates = {{kKeyAttribute, key}};
  const SimDuration expected =
      small_config().check_cost * std::int64_t(db.key_frequency(key));
  EXPECT_EQ(db.estimate_cost(txn), expected);
}

TEST(EstimateCostTest, NonKeyTransactionCostsFullSubScan) {
  Xoshiro256ss rng(12);
  const GlobalDatabase db(small_config(), rng);
  Transaction txn;
  txn.subdb = 1;
  txn.predicates = {{3u, db.encode(1, 3, 0)}};
  EXPECT_EQ(db.estimate_cost(txn), usec(10) * 200);
}

TEST(EstimateCostTest, AbsentKeyValueCostsOneProbe) {
  Xoshiro256ss rng(13);
  DatabaseConfig cfg = small_config();
  cfg.domain_size = 10000;  // nearly all key values unused
  const GlobalDatabase db(cfg, rng);
  AttrValue absent = 0;
  bool found = false;
  for (std::uint32_t off = 0; off < cfg.domain_size && !found; ++off) {
    absent = db.encode(0, kKeyAttribute, off);
    found = db.key_frequency(absent) == 0;
  }
  ASSERT_TRUE(found);
  Transaction txn;
  txn.subdb = 0;
  txn.predicates = {{kKeyAttribute, absent}};
  EXPECT_EQ(db.estimate_cost(txn), cfg.check_cost);
  EXPECT_THROW(static_cast<void>(db.estimate_cost(Transaction{})), InvalidArgument);
}

TEST(EstimateCostTest, EstimateUpperBoundsActualCheckedTuples) {
  // The estimator is a worst case: checked tuples never exceed it.
  Xoshiro256ss rng(14);
  const GlobalDatabase db(small_config(), rng);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t off = 0; off < 20; ++off) {
      Transaction with_key;
      with_key.subdb = s;
      with_key.predicates = {{kKeyAttribute, db.encode(s, kKeyAttribute, off)},
                             {1u, db.encode(s, 1, off)}};
      const auto iters_bound =
          db.estimate_cost(with_key) / small_config().check_cost;
      EXPECT_LE(db.execute(with_key).checked, std::uint64_t(iters_bound));
    }
  }
}

TEST(GlobalDatabaseTest, DeterministicForSeed) {
  Xoshiro256ss rng1(15), rng2(15);
  const GlobalDatabase a(small_config(), rng1);
  const GlobalDatabase b(small_config(), rng2);
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t r = 0; r < 200; ++r) {
      const auto ra = a.subdb(s).record(r);
      const auto rb = b.subdb(s).record(r);
      EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
    }
  }
}

}  // namespace
}  // namespace rtds::db
