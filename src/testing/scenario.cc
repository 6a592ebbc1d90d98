#include "testing/scenario.h"

#include <charconv>
#include <sstream>
#include <type_traits>

#include "common/error.h"

namespace rtds::testing {
namespace {

constexpr char kTokenPrefix[] = "rtds5";
constexpr std::uint64_t kWorkloadStream = stream_id("fuzz.workload");
constexpr std::uint64_t kScenarioStream = stream_id("fuzz.scenario");

/// Visits every Scenario field in the fixed token order. Adding a field
/// means bumping kTokenPrefix — old tokens must not silently decode into a
/// differently-shaped scenario.
template <typename S, typename F>
void visit_fields(S& s, F&& f) {
  f(s.seed);
  f(s.workers);
  f(s.num_shards);
  f(s.comm_cost_us);
  f(s.reclaim);
  f(s.num_tasks);
  f(s.arrival_kind);
  f(s.mean_interarrival_us);
  f(s.burst_size);
  f(s.burst_interval_us);
  f(s.processing_min_us);
  f(s.processing_max_us);
  f(s.affinity_permille);
  f(s.laxity_min_centi);
  f(s.laxity_max_centi);
  f(s.max_start_offset_us);
  f(s.actual_fraction_min_permille);
  f(s.actual_fraction_max_permille);
  f(s.vertex_cost_us);
  f(s.phase_overhead_us);
  f(s.max_delivery_attempts);
  f(s.backpressure_us);
  f(s.quantum_kind);
  f(s.min_quantum_us);
  f(s.max_quantum_us);
  f(s.fixed_quantum_us);
  f(s.algo_spec);
  f(s.refusal_period);
  f(s.mailbox_capacity);
  f(s.delivery_retries);
  f(s.run_threaded);
  f(s.parity_class);
  // rtds3 additions (appended, prefix bumped from rtds2).
  f(s.open_arrival);
  f(s.stream_mean_gap_us);
  f(s.stream_min_gap_us);
  f(s.stream_burst_len);
  f(s.stream_off_us);
  f(s.max_pending);
  // rtds4 additions: gang and periodic task-model dials.
  f(s.gang_permille);
  f(s.gang_max_workers);
  f(s.release_period_us);
  f(s.num_releases);
  f(s.release_jitter_us);
  // rtds5 addition: big-batch capacity dial.
  f(s.big_batch);
}

/// Exhaustive kind labels for Scenario::to_string. Returning nullptr for an
/// unlisted value makes a forgotten new kind print as "unknown(N)" instead
/// of silently borrowing the last label (the old nested ternaries mislabeled
/// every kind beyond the ones they spelled out).
const char* arrival_kind_name(std::uint32_t kind) {
  switch (kind) {
    case kArrivalBursty:
      return "bursty";
    case kArrivalPoisson:
      return "poisson";
    case kArrivalPeriodicBurst:
      return "periodic-burst";
  }
  return nullptr;
}

const char* open_kind_name(std::uint32_t kind) {
  switch (kind) {
    case kOpenClosed:
      return "closed";
    case kOpenPoisson:
      return "poisson";
    case kOpenOnOff:
      return "on-off";
    case kOpenSporadic:
      return "sporadic";
    case kOpenPeriodic:
      return "periodic";
  }
  return nullptr;
}

std::string kind_label(const char* name, std::uint32_t kind) {
  return name != nullptr ? std::string(name)
                         : "unknown(" + std::to_string(kind) + ")";
}

std::uint64_t fnv1a(const std::string& payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : payload) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

tasks::WorkloadConfig Scenario::workload_config() const {
  tasks::WorkloadConfig wc;
  wc.num_tasks = num_tasks;
  wc.num_processors = workers;
  switch (arrival_kind) {
    case kArrivalPoisson:
      wc.arrival = tasks::ArrivalPattern::kPoisson;
      break;
    case kArrivalPeriodicBurst:
      wc.arrival = tasks::ArrivalPattern::kPeriodicBurst;
      break;
    default:
      wc.arrival = tasks::ArrivalPattern::kBursty;
      break;
  }
  wc.mean_interarrival = SimDuration{mean_interarrival_us};
  wc.burst_size = burst_size;
  wc.burst_interval = SimDuration{burst_interval_us};
  wc.processing_min = SimDuration{processing_min_us};
  wc.processing_max = SimDuration{processing_max_us};
  wc.affinity_degree = double(affinity_permille) / 1000.0;
  wc.laxity_min = double(laxity_min_centi) / 100.0;
  wc.laxity_max = double(laxity_max_centi) / 100.0;
  wc.max_start_offset = SimDuration{max_start_offset_us};
  wc.actual_fraction_min = double(actual_fraction_min_permille) / 1000.0;
  wc.actual_fraction_max = double(actual_fraction_max_permille) / 1000.0;
  wc.gang_fraction = double(gang_permille) / 1000.0;
  wc.gang_max_workers = gang_max_workers;
  wc.release_period = SimDuration{release_period_us};
  wc.num_releases = num_releases;
  return wc;
}

std::vector<tasks::Task> make_workload(const Scenario& scenario) {
  Xoshiro256ss rng(derive_seed(scenario.seed, kWorkloadStream, 0));
  return tasks::generate_workload(scenario.workload_config(), rng);
}

std::unique_ptr<tasks::ArrivalSource> make_stream_source(
    const Scenario& scenario) {
  RTDS_REQUIRE(scenario.open_arrival != kOpenClosed,
               "make_stream_source: scenario is closed (open_arrival = 0)");
  tasks::StreamConfig cfg;
  cfg.seed = scenario.seed;
  cfg.max_tasks = scenario.num_tasks;
  cfg.body = scenario.workload_config();
  switch (scenario.open_arrival) {
    case kOpenOnOff:
      return std::make_unique<tasks::OnOffArrivalSource>(
          cfg, SimDuration{scenario.stream_mean_gap_us},
          scenario.stream_burst_len, SimDuration{scenario.stream_off_us});
    case kOpenSporadic:
      return std::make_unique<tasks::SporadicArrivalSource>(
          cfg, SimDuration{scenario.stream_min_gap_us},
          SimDuration{scenario.stream_mean_gap_us});
    case kOpenPeriodic:
      return std::make_unique<tasks::PeriodicArrivalSource>(
          cfg, SimDuration{scenario.release_period_us},
          SimDuration{scenario.release_jitter_us});
    default:
      return std::make_unique<tasks::PoissonArrivalSource>(
          cfg, SimDuration{scenario.stream_mean_gap_us});
  }
}

std::vector<tasks::Task> make_stream_tasks(const Scenario& scenario) {
  const std::unique_ptr<tasks::ArrivalSource> source =
      make_stream_source(scenario);
  std::vector<tasks::Task> out;
  out.reserve(scenario.num_tasks);
  while (source->peek().has_value()) out.push_back(source->next());
  return out;
}

Scenario generate_scenario(std::uint64_t base_seed, std::uint64_t index) {
  Xoshiro256ss rng(derive_seed(base_seed, kScenarioStream, index));
  Scenario s;
  s.seed = rng.next();

  // -- machine ---------------------------------------------------------------
  s.workers = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  std::vector<std::uint32_t> divisors;
  for (std::uint32_t d = 1; d <= s.workers; ++d) {
    if (s.workers % d == 0) divisors.push_back(d);
  }
  s.num_shards = rng.bernoulli(0.6) ? 1 : divisors[size_t(rng.uniform_int(
                                              0, int64_t(divisors.size()) - 1))];
  static constexpr std::int64_t kCommChoices[] = {0, 500, 1000, 2000, 5000};
  s.comm_cost_us = kCommChoices[rng.uniform_int(0, 4)];
  s.reclaim = rng.bernoulli(0.25) ? 1 : 0;

  // -- workload --------------------------------------------------------------
  s.num_tasks = rng.bernoulli(0.02)
                    ? 0
                    : static_cast<std::uint32_t>(rng.uniform_int(1, 160));
  const double arrival_roll = rng.uniform_double();
  s.arrival_kind = arrival_roll < 0.4    ? kArrivalBursty
                   : arrival_roll < 0.8  ? kArrivalPoisson
                                         : kArrivalPeriodicBurst;
  s.mean_interarrival_us = rng.uniform_int(50, 500);
  s.burst_size = static_cast<std::uint32_t>(rng.uniform_int(4, 16));
  s.burst_interval_us = rng.uniform_int(1000, 5000);
  s.processing_min_us = rng.uniform_int(100, 1000);
  s.processing_max_us = rng.uniform_int(s.processing_min_us, 3000);
  s.affinity_permille = static_cast<std::uint32_t>(rng.uniform_int(100, 1000));
  // SF sweep: laxity from 0.5 (instantly unreachable — cull path) to 40.
  s.laxity_min_centi = static_cast<std::uint32_t>(rng.uniform_int(50, 2000));
  s.laxity_max_centi = static_cast<std::uint32_t>(
      rng.uniform_int(s.laxity_min_centi, s.laxity_min_centi + 2000));
  s.max_start_offset_us = rng.bernoulli(0.7) ? 0 : rng.uniform_int(0, 2000);
  if (s.reclaim == 1) {
    s.actual_fraction_min_permille =
        static_cast<std::uint32_t>(rng.uniform_int(300, 1000));
    s.actual_fraction_max_permille = static_cast<std::uint32_t>(
        rng.uniform_int(s.actual_fraction_min_permille, 1000));
  }

  // -- pipeline --------------------------------------------------------------
  static constexpr std::int64_t kVertexChoices[] = {2, 5, 10};
  static constexpr std::int64_t kOverheadChoices[] = {0, 20, 50, 100};
  static constexpr std::uint32_t kAttemptChoices[] = {0, 1, 2, 8};
  static constexpr std::int64_t kBackpressureChoices[] = {0, 100, 200, 1000};
  s.vertex_cost_us = kVertexChoices[rng.uniform_int(0, 2)];
  s.phase_overhead_us = kOverheadChoices[rng.uniform_int(0, 3)];
  s.max_delivery_attempts = kAttemptChoices[rng.uniform_int(0, 3)];
  s.backpressure_us = kBackpressureChoices[rng.uniform_int(0, 3)];

  // -- quantum ---------------------------------------------------------------
  s.quantum_kind = rng.bernoulli(0.15) ? 1 : 0;
  s.min_quantum_us = rng.uniform_int(100, 500);
  s.max_quantum_us = rng.uniform_int(2000, 20000);
  s.fixed_quantum_us = rng.uniform_int(200, 20000);

  // -- algorithm -------------------------------------------------------------
  // Weighted portfolio mix: the paper's two search schedulers keep most of
  // the probability mass, the partitioned and greedy entrants share the
  // rest so every registry family is continuously enrolled in the oracles.
  // The roll boundaries are frozen so a fuzz seed keeps generating the
  // same scenario.
  const double algo_roll = rng.uniform_double();
  s.algo_spec = algo_roll < 0.30   ? "rt_sads"
                : algo_roll < 0.38 ? "d_cols"
                : algo_roll < 0.45 ? "search"
                : algo_roll < 0.52 ? "d_cols?max_successors=4"
                : algo_roll < 0.62 ? "packing"
                : algo_roll < 0.69 ? "packing?fit=best&order=lpt"
                : algo_roll < 0.79 ? "multicrit"
                : algo_roll < 0.86 ? "multicrit?sort=min_slack&fit=worst"
                : algo_roll < 0.91 ? "multicrit?sort=lpt&fit=next"
                : algo_roll < 0.95 ? "edf_ff"
                : algo_roll < 0.98 ? "edf_bf"
                                   : "myopic?window=3";

  // -- fault injection -------------------------------------------------------
  s.refusal_period = rng.bernoulli(0.7)
                         ? 0
                         : static_cast<std::uint32_t>(rng.uniform_int(2, 5));
  static constexpr std::uint32_t kMailboxChoices[] = {1, 2, 4, 16, 1024};
  s.mailbox_capacity = kMailboxChoices[rng.uniform_int(0, 4)];
  static constexpr std::uint32_t kRetryChoices[] = {0, 1, 3};
  s.delivery_retries = kRetryChoices[rng.uniform_int(0, 2)];
  s.run_threaded = 1;

  // -- open arrivals ---------------------------------------------------------
  // A slice of the sweep exercises the streaming service mode: the same
  // task-body dials, but pulled through run_stream from a generated source,
  // with admission control engaged half the time. Single-shard only: the
  // multi-shard audit routes a materialized workload vector, which an open
  // run deliberately does not have.
  const double open_roll = rng.uniform_double();
  s.open_arrival = open_roll < 0.70   ? kOpenClosed
                   : open_roll < 0.80 ? kOpenPoisson
                   : open_roll < 0.88 ? kOpenOnOff
                   : open_roll < 0.94 ? kOpenSporadic
                                      : kOpenPeriodic;
  s.stream_mean_gap_us = rng.uniform_int(50, 1000);
  s.stream_min_gap_us = rng.uniform_int(20, 300);
  s.stream_burst_len = static_cast<std::uint32_t>(rng.uniform_int(2, 12));
  s.stream_off_us = rng.uniform_int(1000, 10000);
  s.max_pending = rng.bernoulli(0.5)
                      ? 0
                      : static_cast<std::uint32_t>(rng.uniform_int(4, 64));
  if (s.open_arrival != kOpenClosed) s.num_shards = 1;

  // -- task models -----------------------------------------------------------
  // Gang/moldable jobs: ~25% of multi-worker scenarios mix in gangs, a
  // sub-slice going all-gang. Gang scenarios collapse to a single shard: a
  // gang wider than its shard could never be placed, and shards partition
  // the workers.
  if (s.workers >= 2 && rng.bernoulli(0.25)) {
    s.gang_permille = rng.bernoulli(0.3)
                          ? 1000
                          : static_cast<std::uint32_t>(
                                rng.uniform_int(100, 600));
    s.gang_max_workers =
        static_cast<std::uint32_t>(rng.uniform_int(2, s.workers));
    s.num_shards = 1;
  }
  // Periodic releases: the period/jitter pair feeds both the closed
  // replication dial (num_releases > 1) and the kOpenPeriodic stream.
  s.release_period_us = rng.uniform_int(2000, 20000);
  s.release_jitter_us =
      rng.bernoulli(0.5) ? 0 : rng.uniform_int(0, s.release_period_us);
  if (s.open_arrival == kOpenClosed && rng.bernoulli(0.2)) {
    s.num_releases = static_cast<std::uint32_t>(rng.uniform_int(2, 5));
    // Keep the total job count in the usual fuzz band.
    if (s.num_tasks > 40) s.num_tasks = 40;
  }

  // -- parity class ----------------------------------------------------------
  // A slice of the sweep is constructed so the threaded backend MUST agree
  // with the DES on scheduled/culled/hit counts: one bursty batch at t=0,
  // deadlines minutes beyond any wall-clock jitter, no injected faults, no
  // start-time offsets (the threaded workers do not model them), mailboxes
  // far deeper than the workload.
  s.parity_class = rng.bernoulli(0.15) ? 1 : 0;
  if (s.parity_class == 1) {
    // Parity scenarios are closed by construction: the count-parity
    // argument needs one bursty batch at t=0, not a timed stream.
    s.open_arrival = kOpenClosed;
    s.arrival_kind = kArrivalBursty;
    s.num_tasks = s.num_tasks == 0
                      ? 0
                      : static_cast<std::uint32_t>(rng.uniform_int(1, 40));
    s.workers = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    s.num_shards = 1;
    s.laxity_min_centi =
        static_cast<std::uint32_t>(rng.uniform_int(5'000'000, 10'000'000));
    s.laxity_max_centi = s.laxity_min_centi;
    s.max_start_offset_us = 0;
    s.reclaim = 0;
    s.actual_fraction_min_permille = 1000;
    s.actual_fraction_max_permille = 1000;
    s.refusal_period = 0;
    s.mailbox_capacity = 1024;
    s.delivery_retries = 3;
    // Gangs stay allowed in the parity class (the count-parity argument is
    // width-agnostic), but the width dial must respect the redrawn worker
    // count; repeated releases would spread the batch over time, so parity
    // keeps the one-shot model.
    if (s.workers < 2) {
      s.gang_permille = 0;
      s.gang_max_workers = 2;
    } else if (s.gang_max_workers > s.workers) {
      s.gang_max_workers = s.workers;
    }
    s.num_releases = 1;
  }

  // -- big-batch capacity slice ----------------------------------------------
  // A thin slice (~0.4%) of the sweep pushes one burst of 65536..200000
  // tasks through the wide-header search path, keeping the lifted task cap
  // continuously enrolled in the oracles without dominating CI time. Drawn
  // last so replaying any pre-capacity scenario shape is unaffected by the
  // profile's redraws.
  if (rng.bernoulli(0.004)) {
    apply_big_batch_profile(s, rng);
  }
  return s;
}

void apply_big_batch_profile(Scenario& s, Xoshiro256ss& rng) {
  s.big_batch = 1;
  // One closed burst at t=0: all tasks land in a single phase batch, the
  // shape that forces the engine onto the wide node header.
  s.num_tasks =
      static_cast<std::uint32_t>(rng.uniform_int(65'536, 200'000));
  s.arrival_kind = kArrivalBursty;
  s.burst_size = s.num_tasks;
  s.mean_interarrival_us = 50;
  s.open_arrival = kOpenClosed;
  s.num_shards = 1;
  s.workers = static_cast<std::uint32_t>(rng.uniform_int(4, 12));
  // Generous laxity: the batch must be schedulable, not a cull stampede —
  // capacity bugs hide in the feasible path.
  s.laxity_min_centi =
      static_cast<std::uint32_t>(rng.uniform_int(500'000, 1'000'000));
  s.laxity_max_centi = s.laxity_min_centi;
  s.processing_min_us = 100;
  s.processing_max_us = 500;
  s.max_start_offset_us = 0;
  s.reclaim = 0;
  s.actual_fraction_min_permille = 1000;
  s.actual_fraction_max_permille = 1000;
  // A big quantum and cheap vertices give the search a budget deep enough
  // to walk far past the 65535-depth line.
  s.quantum_kind = 0;
  s.max_quantum_us = 200'000;
  s.vertex_cost_us = 2;
  // Search family only (the capacity machinery under test). The draw is
  // kept so the RNG stream, and with it every seed's scenario, is unchanged.
  s.algo_spec = rng.bernoulli(0.3) ? "search" : "rt_sads";
  // DES only — the threaded backend replays wall-clock time and would
  // dominate the slice; no faults, gangs, or releases (orthogonal dials).
  s.run_threaded = 0;
  s.parity_class = 0;
  s.refusal_period = 0;
  s.mailbox_capacity = 1024;
  s.gang_permille = 0;
  s.gang_max_workers = 2;
  s.num_releases = 1;
}

std::string encode_token(const Scenario& scenario) {
  std::ostringstream os;
  visit_fields(scenario, [&os](const auto& field) {
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 std::string>) {
      // String fields become "x" + lowercase hex bytes: the segment starts
      // with 'x' (never a digit, never 'c'), so it cannot be confused with
      // a numeric field or the ".c<checksum>" suffix.
      os << ".x";
      static constexpr char kHex[] = "0123456789abcdef";
      for (const char c : field) {
        const auto b = static_cast<unsigned char>(c);
        os << kHex[b >> 4] << kHex[b & 0xF];
      }
    } else {
      os << '.' << static_cast<std::uint64_t>(field);
    }
  });
  const std::string payload = os.str();
  std::ostringstream token;
  token << kTokenPrefix << payload << ".c" << std::hex
        << (fnv1a(payload) & 0xffffffffULL);
  return token.str();
}

std::optional<Scenario> decode_token(const std::string& token) {
  const std::string prefix = std::string(kTokenPrefix) + ".";
  if (token.rfind(prefix, 0) != 0) return std::nullopt;
  const std::size_t checksum_at = token.rfind(".c");
  if (checksum_at == std::string::npos || checksum_at < prefix.size() - 1) {
    return std::nullopt;
  }
  const std::string payload =
      token.substr(sizeof(kTokenPrefix) - 1,
                   checksum_at - (sizeof(kTokenPrefix) - 1));
  std::uint64_t checksum = 0;
  {
    const char* begin = token.data() + checksum_at + 2;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(begin, end, checksum, 16);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
  }
  if ((fnv1a(payload) & 0xffffffffULL) != checksum) return std::nullopt;

  Scenario s;
  std::size_t pos = 0;
  bool ok = true;
  const auto hex_nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  visit_fields(s, [&](auto& field) {
    if (!ok) return;
    if (pos >= payload.size() || payload[pos] != '.') {
      ok = false;
      return;
    }
    ++pos;
    if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                 std::string>) {
      if (pos >= payload.size() || payload[pos] != 'x') {
        ok = false;
        return;
      }
      ++pos;
      std::string value;
      while (pos < payload.size() && payload[pos] != '.') {
        if (pos + 1 >= payload.size()) {
          ok = false;  // odd hex digit count
          return;
        }
        const int hi = hex_nibble(payload[pos]);
        const int lo = hex_nibble(payload[pos + 1]);
        if (hi < 0 || lo < 0) {
          ok = false;
          return;
        }
        value.push_back(static_cast<char>((hi << 4) | lo));
        pos += 2;
      }
      field = std::move(value);
    } else {
      std::uint64_t value = 0;
      const char* begin = payload.data() + pos;
      const char* end = payload.data() + payload.size();
      const auto [ptr, ec] = std::from_chars(begin, end, value);
      if (ec != std::errc{} || ptr == begin) {
        ok = false;
        return;
      }
      pos = static_cast<std::size_t>(ptr - payload.data());
      field = static_cast<std::remove_reference_t<decltype(field)>>(value);
    }
  });
  if (!ok || pos != payload.size()) return std::nullopt;
  return s;
}

std::string Scenario::to_string() const {
  std::ostringstream os;
  os << "scenario{seed=" << seed << " workers=" << workers
     << " shards=" << num_shards << " tasks=" << num_tasks << " arrival="
     << kind_label(arrival_kind_name(arrival_kind), arrival_kind)
     << " laxity=[" << laxity_min_centi / 100.0 << ","
     << laxity_max_centi / 100.0 << "]"
     << " proc=[" << processing_min_us << "," << processing_max_us << "]us"
     << " comm=" << comm_cost_us << "us"
     << " algo=" << algo_spec
     << " quantum=" << (quantum_kind == 1 ? "fixed" : "self-adjusting")
     << " attempts=" << max_delivery_attempts
     << " refuse_every=" << refusal_period << " mailbox=" << mailbox_capacity
     << (reclaim == 1 ? " reclaim" : "")
     << (parity_class == 1 ? " parity" : "")
     << (big_batch != 0 ? " big-batch" : "");
  if (gang_permille > 0) {
    os << " gang=" << gang_permille << "pm<=" << gang_max_workers << "w";
  }
  if (num_releases > 1) {
    os << " releases=" << num_releases << "x" << release_period_us << "us";
  }
  if (open_arrival != kOpenClosed) {
    os << " open=" << kind_label(open_kind_name(open_arrival), open_arrival);
    if (open_arrival == kOpenPeriodic) {
      os << " period=" << release_period_us
         << "us jitter=" << release_jitter_us << "us";
    } else {
      os << " gap=" << stream_mean_gap_us << "us";
    }
    os << " max_pending=" << max_pending;
  }
  os << "}";
  return os.str();
}

}  // namespace rtds::testing
