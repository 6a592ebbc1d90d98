// The distributed relational database of Sec. 5.
//
// A global database of r tuples is divided into d sub-databases; each
// sub-database holds `records_per_subdb` records with `num_attributes`
// attributes whose value domains are DISJOINT across sub-databases (the
// paper's simplification). A value therefore identifies its owning
// sub-database, which is the "hashing function" the paper uses to locate
// tuples. Sub-databases are indexed on a key attribute (attribute #0 here,
// "attribute #1" in the paper); the host processor keeps the global index
// file and uses it to estimate worst-case transaction execution costs:
//
//   Execution_Cost(q) = k * ( frequency of the matching key value,  if the
//                             key attribute is among q's predicates;
//                             r/d (a full sub-database scan) otherwise )
//
// Storage layout. A build makes a handful of allocations, none per tuple:
//  - each SubDatabase keeps its tuples in one row-major value array
//    (records x attributes); record(row) is a span into it;
//  - its key index is a CSR over the key attribute's domain offsets: start
//    offsets per offset (domain_size + 1 entries) into one row array,
//    filled by a counting pass so every row list is ascending;
//  - the host's global index file is a dense num_subdbs x domain_size
//    count table, indexed by (owning sub-database, key domain offset).
// The two key structures take 8 bytes per (sub-database, key domain
// offset), whether or not a tuple holds that value.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/time.h"

namespace rtds::db {

/// Encoded attribute value. The encoding ((subdb * A + attr) * domain + off)
/// keeps domains disjoint across sub-databases and attributes, and makes
/// value -> owning-sub-database lookup a constant-time division.
using AttrValue = std::uint32_t;

/// Shape of the database (defaults are the paper's experiment design).
struct DatabaseConfig {
  std::uint32_t num_subdbs{10};
  std::uint32_t records_per_subdb{1000};
  std::uint32_t num_attributes{10};
  /// Distinct values per (sub-database, attribute) domain. Values are drawn
  /// uniformly, so a key value matches ~records_per_subdb/domain_size
  /// tuples on average. The key index is dense over this domain: it costs
  /// 8 bytes per sub-database and domain value.
  std::uint32_t domain_size{100};
  /// k — processing time of one checking iteration (one tuple inspected).
  SimDuration check_cost{usec(20)};

  [[nodiscard]] std::uint64_t total_records() const {
    return std::uint64_t(num_subdbs) * records_per_subdb;
  }
};

/// The key attribute sub-databases are indexed on.
inline constexpr std::uint32_t kKeyAttribute = 0;

/// One equality predicate of a read-only transaction.
struct Predicate {
  std::uint32_t attribute{0};
  AttrValue value{0};
};

/// A read-only select transaction (Sec. 5): locate the tuples matching a
/// conjunction of attribute-value predicates. Domains are disjoint across
/// sub-databases, so all predicate values of a well-formed transaction
/// belong to one sub-database.
struct Transaction {
  std::uint32_t id{0};
  std::uint32_t subdb{0};  ///< owning sub-database of the predicate values
  std::vector<Predicate> predicates;

  [[nodiscard]] bool references_key() const {
    for (const Predicate& p : predicates) {
      if (p.attribute == kKeyAttribute) return true;
    }
    return false;
  }
};

/// Matching semantics for transaction execution.
enum class QueryMode {
  kAllMatches,  ///< check every candidate tuple (worst case == actual)
  kFirstMatch,  ///< stop at the first satisfying tuple (point lookup);
                ///< actual checked count can be far below the worst case,
                ///< which is what makes resource reclaiming profitable
};

/// Result of actually executing a transaction against a sub-database.
struct QueryResult {
  std::uint32_t matched{0};  ///< tuples satisfying every predicate
  std::uint32_t checked{0};  ///< tuples inspected (the real cost driver)
};

/// One partition: records plus a key-attribute index.
class SubDatabase {
 public:
  SubDatabase(std::uint32_t subdb_id, const DatabaseConfig& config,
              Xoshiro256ss& rng);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] std::uint32_t num_records() const { return num_records_; }

  /// The tuple at `row`: one value per attribute.
  [[nodiscard]] std::span<const AttrValue> record(std::uint32_t row) const;

  /// Rows whose key attribute equals `value` (index probe), ascending.
  /// Empty for values outside this sub-database's key domain.
  [[nodiscard]] std::span<const std::uint32_t> key_lookup(
      AttrValue value) const;

  /// Executes a transaction: uses the key index when the transaction
  /// constrains the key attribute, otherwise scans all records, checking
  /// every predicate ("iterating a checking process among the tuples").
  /// kFirstMatch stops at the first satisfying tuple. Throws
  /// InvalidArgument when a predicate names no attribute of this
  /// sub-database, before any tuple is inspected.
  [[nodiscard]] QueryResult execute(
      const Transaction& txn, QueryMode mode = QueryMode::kAllMatches) const;

 private:
  std::uint32_t id_;
  std::uint32_t num_records_;
  std::uint32_t num_attributes_;
  AttrValue key_base_;  ///< encoded value of key domain offset 0
  std::vector<AttrValue> values_;  ///< row-major, records x attributes
  /// CSR key index: the rows holding key offset `o` are
  /// key_rows_[key_starts_[o] .. key_starts_[o + 1]).
  std::vector<std::uint32_t> key_starts_;
  std::vector<std::uint32_t> key_rows_;
};

/// The partitioned global database plus the host's global index file.
class GlobalDatabase {
 public:
  /// Populates every sub-database; all randomness comes from `rng`.
  GlobalDatabase(DatabaseConfig config, Xoshiro256ss& rng);

  [[nodiscard]] const DatabaseConfig& config() const { return config_; }
  [[nodiscard]] const SubDatabase& subdb(std::uint32_t s) const;
  [[nodiscard]] std::uint32_t num_subdbs() const {
    return config_.num_subdbs;
  }

  // -- value encoding ------------------------------------------------------
  [[nodiscard]] AttrValue encode(std::uint32_t subdb, std::uint32_t attribute,
                                 std::uint32_t offset) const;
  [[nodiscard]] std::uint32_t owner_subdb(AttrValue value) const;
  [[nodiscard]] std::uint32_t attribute_of(AttrValue value) const;

  // -- host-side estimation (Sec. 5) ---------------------------------------
  /// Frequency of `value` in the global key index (0 if absent, and for
  /// values that are no key value of any sub-database).
  [[nodiscard]] std::uint32_t key_frequency(AttrValue value) const;

  /// The paper's worst-case cost estimate for a transaction. Never zero:
  /// even a transaction on an absent key value costs one checking
  /// iteration to discover that.
  [[nodiscard]] SimDuration estimate_cost(const Transaction& txn) const;

  /// Executes `txn` against its sub-database (ground truth for tests:
  /// estimate_cost / check_cost must upper-bound QueryResult::checked).
  [[nodiscard]] QueryResult execute(
      const Transaction& txn, QueryMode mode = QueryMode::kAllMatches) const;

  /// Actual execution cost of `txn` under the given semantics:
  /// checked-tuple count (at least one) times the per-check cost. Always
  /// <= estimate_cost(txn).
  [[nodiscard]] SimDuration actual_cost(
      const Transaction& txn, QueryMode mode = QueryMode::kAllMatches) const;

 private:
  DatabaseConfig config_;
  std::vector<SubDatabase> subdbs_;
  /// Global key-index file kept by the host: the frequency of key domain
  /// offset `o` of sub-database `s` is key_counts_[s * domain_size + o].
  std::vector<std::uint32_t> key_counts_;
};

}  // namespace rtds::db
