// Bit-identity fingerprints of database population and workload generation.
//
// The digests pin every value the database and the transaction stream
// are built from: tuple values, the key-index row lists, the host's key
// frequencies, and the tasks derived from the generated transactions with
// and without actual costs, under both query modes. They were computed
// before the storage was flattened; a storage or generator rewrite must
// reproduce them exactly, and any change to a random draw or a generated
// value moves them.
#include <gtest/gtest.h>

#include <cstdint>

#include "db/database.h"
#include "db/placement.h"
#include "db/transaction.h"

namespace rtds::db {
namespace {

DatabaseConfig paper_config() { return DatabaseConfig{}; }

DatabaseConfig small_config() {
  DatabaseConfig cfg;
  cfg.num_subdbs = 4;
  cfg.records_per_subdb = 200;
  cfg.num_attributes = 5;
  cfg.domain_size = 20;
  cfg.check_cost = usec(10);
  return cfg;
}

/// 64-bit FNV-1a, fed one little-endian word at a time.
class Fnv {
 public:
  void add(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{0xcbf29ce484222325ULL};
};

void add_task(Fnv& h, const Task& t) {
  h.add(t.id);
  h.add(std::uint64_t(t.arrival.us));
  h.add(std::uint64_t(t.processing.us));
  h.add(std::uint64_t(t.deadline.us));
  h.add(t.affinity.raw());
  h.add(std::uint64_t(t.earliest_start.us));
  h.add(std::uint64_t(t.actual_processing.us));
  h.add(t.workers_required);
}

/// Digest of a database built from `seed` and of the task streams
/// generated from it (the generator continues the same rng).
std::uint64_t fingerprint(const DatabaseConfig& cfg, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const GlobalDatabase db(cfg, rng);
  Fnv h;
  for (std::uint32_t s = 0; s < cfg.num_subdbs; ++s) {
    const SubDatabase& sd = db.subdb(s);
    for (std::uint32_t r = 0; r < cfg.records_per_subdb; ++r) {
      for (std::uint32_t a = 0; a < cfg.num_attributes; ++a) {
        h.add(sd.record(r)[a]);
      }
    }
    for (std::uint32_t off = 0; off < cfg.domain_size; ++off) {
      const AttrValue key = db.encode(s, kKeyAttribute, off);
      const auto rows = sd.key_lookup(key);
      h.add(rows.size());
      for (std::uint32_t row : rows) h.add(row);
      h.add(db.key_frequency(key));
    }
  }

  TransactionWorkloadConfig wl;
  wl.num_transactions = 1000;
  wl.scaling_factor = 2.0;
  const auto txns = generate_transactions(db, wl, rng);
  for (const Transaction& txn : txns) {
    h.add(txn.id);
    h.add(txn.subdb);
    h.add(txn.predicates.size());
    for (const Predicate& p : txn.predicates) {
      h.add(p.attribute);
      h.add(p.value);
    }
  }
  const Placement placement = Placement::rotation(cfg.num_subdbs, 10, 0.3);
  for (bool fill : {false, true}) {
    for (QueryMode mode : {QueryMode::kAllMatches, QueryMode::kFirstMatch}) {
      wl.fill_actual_costs = fill;
      wl.query_mode = mode;
      for (const Task& t : to_tasks(txns, db, placement, wl)) add_task(h, t);
    }
  }
  return h.value();
}

TEST(DbFingerprintTest, PaperConfigSeed1) {
  EXPECT_EQ(fingerprint(paper_config(), 1), 0x8637eabe33ad9c8eULL);
}

TEST(DbFingerprintTest, PaperConfigSeed20260) {
  EXPECT_EQ(fingerprint(paper_config(), 20260), 0xd33bff3062e20224ULL);
}

TEST(DbFingerprintTest, SmallConfigSeed2) {
  EXPECT_EQ(fingerprint(small_config(), 2), 0xaf6d63244b72bf26ULL);
}

TEST(DbFingerprintTest, SmallConfigSeed77) {
  EXPECT_EQ(fingerprint(small_config(), 77), 0x2eb652d9373be6b9ULL);
}

TEST(DbFingerprintTest, KeyLookupMissesForeignAndNonKeyValues) {
  Xoshiro256ss rng(32);
  const GlobalDatabase db(small_config(), rng);
  const SubDatabase& sd = db.subdb(1);
  // A key value of another sub-database and a non-key value of this one.
  EXPECT_TRUE(sd.key_lookup(db.encode(2, kKeyAttribute, 0)).empty());
  EXPECT_TRUE(sd.key_lookup(db.encode(1, 3, 0)).empty());
  EXPECT_TRUE(sd.key_lookup(~AttrValue{0}).empty());
}

TEST(DbFingerprintTest, KeyFrequencyIsZeroForNonKeyAndOutOfRangeValues) {
  Xoshiro256ss rng(33);
  const DatabaseConfig cfg = small_config();
  const GlobalDatabase db(cfg, rng);
  for (std::uint32_t s = 0; s < cfg.num_subdbs; ++s) {
    for (std::uint32_t a = 1; a < cfg.num_attributes; ++a) {
      for (std::uint32_t off = 0; off < cfg.domain_size; ++off) {
        EXPECT_EQ(db.key_frequency(db.encode(s, a, off)), 0u);
      }
    }
  }
  const auto top = AttrValue(cfg.num_subdbs * cfg.num_attributes *
                             cfg.domain_size);
  EXPECT_EQ(db.key_frequency(top), 0u);
  EXPECT_EQ(db.key_frequency(top + cfg.domain_size), 0u);
  EXPECT_EQ(db.key_frequency(~AttrValue{0}), 0u);
}

}  // namespace
}  // namespace rtds::db
