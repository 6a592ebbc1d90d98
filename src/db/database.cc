#include "db/database.h"

#include "common/error.h"

namespace rtds::db {

namespace {

void validate(const DatabaseConfig& c) {
  RTDS_REQUIRE(c.num_subdbs >= 1, "DatabaseConfig: need >= 1 sub-database");
  RTDS_REQUIRE(c.records_per_subdb >= 1, "DatabaseConfig: need records");
  RTDS_REQUIRE(c.num_attributes >= 1, "DatabaseConfig: need attributes");
  RTDS_REQUIRE(c.domain_size >= 1, "DatabaseConfig: need a domain");
  RTDS_REQUIRE(c.check_cost > SimDuration::zero(),
               "DatabaseConfig: check cost must be positive");
  // The encoding must fit in 32 bits.
  const std::uint64_t top = std::uint64_t(c.num_subdbs) * c.num_attributes *
                            c.domain_size;
  RTDS_REQUIRE(top <= std::uint64_t{1} << 32,
               "DatabaseConfig: value encoding overflows 32 bits");
}

}  // namespace

SubDatabase::SubDatabase(std::uint32_t subdb_id, const DatabaseConfig& config,
                         Xoshiro256ss& rng)
    : id_(subdb_id),
      num_records_(config.records_per_subdb),
      num_attributes_(config.num_attributes),
      key_base_(subdb_id * config.num_attributes * config.domain_size) {
  validate(config);
  RTDS_REQUIRE(subdb_id < config.num_subdbs, "SubDatabase: id out of range");
  const std::uint32_t domain = config.domain_size;
  // Tuples, row-major; each key offset's count goes to key_starts_[offset].
  values_.resize(std::size_t(num_records_) * num_attributes_);
  key_starts_.assign(std::size_t(domain) + 1, 0);
  AttrValue* v = values_.data();
  for (std::uint32_t r = 0; r < num_records_; ++r) {
    for (std::uint32_t a = 0; a < num_attributes_; ++a) {
      const auto offset = static_cast<std::uint32_t>(
          rng.uniform_int(0, std::int64_t(domain) - 1));
      v[a] = (subdb_id * num_attributes_ + a) * domain + offset;
    }
    ++key_starts_[v[kKeyAttribute] - key_base_];
    v += num_attributes_;
  }
  // Inclusive prefix sums make key_starts_[o] the end of o's row list;
  // filling rows from the last one down moves it to the list's start and
  // leaves every list ascending.
  for (std::uint32_t o = 1; o < domain; ++o) {
    key_starts_[o] += key_starts_[o - 1];
  }
  key_starts_[domain] = num_records_;
  key_rows_.resize(num_records_);
  for (std::uint32_t r = num_records_; r-- > 0;) {
    const AttrValue key = values_[std::size_t(r) * num_attributes_ +
                                  kKeyAttribute];
    key_rows_[--key_starts_[key - key_base_]] = r;
  }
}

std::span<const AttrValue> SubDatabase::record(std::uint32_t row) const {
  RTDS_REQUIRE(row < num_records_, "record: row out of range");
  return {values_.data() + std::size_t(row) * num_attributes_,
          num_attributes_};
}

std::span<const std::uint32_t> SubDatabase::key_lookup(
    AttrValue value) const {
  // Values below key_base_ wrap around to a huge offset.
  const AttrValue offset = value - key_base_;
  if (offset >= key_starts_.size() - 1) return {};
  return {key_rows_.data() + key_starts_[offset],
          key_rows_.data() + key_starts_[offset + 1]};
}

QueryResult SubDatabase::execute(const Transaction& txn,
                                 QueryMode mode) const {
  for (const Predicate& p : txn.predicates) {
    RTDS_REQUIRE(p.attribute < num_attributes_,
                 "execute: predicate attribute out of range");
  }
  QueryResult result;
  const auto matches = [&](const AttrValue* rec) {
    for (const Predicate& p : txn.predicates) {
      if (rec[p.attribute] != p.value) return false;
    }
    return true;
  };
  const auto check = [&](std::uint32_t row) {
    ++result.checked;
    if (matches(values_.data() + std::size_t(row) * num_attributes_)) {
      ++result.matched;
      return mode == QueryMode::kFirstMatch;  // stop on first hit
    }
    return false;
  };

  if (txn.references_key()) {
    // Index probe on the key predicate, then verify remaining predicates.
    AttrValue key_value = 0;
    for (const Predicate& p : txn.predicates) {
      if (p.attribute == kKeyAttribute) {
        key_value = p.value;
        break;
      }
    }
    for (std::uint32_t row : key_lookup(key_value)) {
      if (check(row)) break;
    }
  } else {
    for (std::uint32_t row = 0; row < num_records_; ++row) {
      if (check(row)) break;
    }
  }
  return result;
}

GlobalDatabase::GlobalDatabase(DatabaseConfig config, Xoshiro256ss& rng)
    : config_(config) {
  validate(config_);
  const std::uint32_t domain = config_.domain_size;
  subdbs_.reserve(config_.num_subdbs);
  key_counts_.resize(std::size_t(config_.num_subdbs) * domain);
  for (std::uint32_t s = 0; s < config_.num_subdbs; ++s) {
    subdbs_.emplace_back(s, config_, rng);
    // Merge this partition's key index into the host's global index file.
    for (std::uint32_t o = 0; o < domain; ++o) {
      key_counts_[std::size_t(s) * domain + o] = static_cast<std::uint32_t>(
          subdbs_.back().key_lookup(encode(s, kKeyAttribute, o)).size());
    }
  }
}

const SubDatabase& GlobalDatabase::subdb(std::uint32_t s) const {
  RTDS_REQUIRE(s < subdbs_.size(), "subdb: id out of range");
  return subdbs_[s];
}

AttrValue GlobalDatabase::encode(std::uint32_t subdb, std::uint32_t attribute,
                                 std::uint32_t offset) const {
  RTDS_REQUIRE(subdb < config_.num_subdbs, "encode: bad sub-database");
  RTDS_REQUIRE(attribute < config_.num_attributes, "encode: bad attribute");
  RTDS_REQUIRE(offset < config_.domain_size, "encode: bad domain offset");
  return (subdb * config_.num_attributes + attribute) * config_.domain_size +
         offset;
}

std::uint32_t GlobalDatabase::owner_subdb(AttrValue value) const {
  const std::uint32_t s =
      value / (config_.num_attributes * config_.domain_size);
  RTDS_REQUIRE(s < config_.num_subdbs, "owner_subdb: value out of range");
  return s;
}

std::uint32_t GlobalDatabase::attribute_of(AttrValue value) const {
  return (value / config_.domain_size) % config_.num_attributes;
}

std::uint32_t GlobalDatabase::key_frequency(AttrValue value) const {
  // value = s * (A * domain) + attr * domain + offset, and the key is
  // attribute 0, so key values are exactly the remainders below `domain`.
  // The stride is 2^32 for a one-sub-database config that fills the
  // encoding, hence 64-bit arithmetic.
  const std::uint64_t stride =
      std::uint64_t(config_.num_attributes) * config_.domain_size;
  const std::uint64_t s = value / stride;
  const std::uint64_t offset = value % stride;
  static_assert(kKeyAttribute == 0);
  if (s >= config_.num_subdbs || offset >= config_.domain_size) return 0;
  return key_counts_[s * config_.domain_size + offset];
}

SimDuration GlobalDatabase::estimate_cost(const Transaction& txn) const {
  RTDS_REQUIRE(!txn.predicates.empty(),
               "estimate_cost: transaction with no predicates");
  std::uint64_t iterations = config_.records_per_subdb;  // r/d
  if (txn.references_key()) {
    for (const Predicate& p : txn.predicates) {
      if (p.attribute == kKeyAttribute) {
        iterations = key_frequency(p.value);
        break;
      }
    }
    if (iterations == 0) iterations = 1;  // discovering absence costs a probe
  }
  return config_.check_cost * std::int64_t(iterations);
}

QueryResult GlobalDatabase::execute(const Transaction& txn,
                                    QueryMode mode) const {
  RTDS_REQUIRE(txn.subdb < subdbs_.size(), "execute: bad sub-database id");
  return subdbs_[txn.subdb].execute(txn, mode);
}

SimDuration GlobalDatabase::actual_cost(const Transaction& txn,
                                        QueryMode mode) const {
  const QueryResult r = execute(txn, mode);
  const std::uint32_t checks = r.checked == 0 ? 1 : r.checked;
  const SimDuration cost = config_.check_cost * std::int64_t(checks);
  return min_duration(cost, estimate_cost(txn));
}

}  // namespace rtds::db
