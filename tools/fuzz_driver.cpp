// rtds_fuzz — deterministic stress/fuzz driver (docs/FUZZING.md).
//
//   rtds_fuzz [--scenarios N] [--seed S] [--no-threaded] [--time-scale X]
//             [--shrink-budget N] [--artifact-dir DIR] [--algo SPEC]
//             [--gang] [--big-batch]
//   rtds_fuzz --replay <token>
//   rtds_fuzz --list-oracles
//   rtds_fuzz --list-algos
//
// Sweeps scenarios generate_scenario(seed, 0..N-1) through the harness.
// By default each scenario draws its algorithm from the portfolio mix;
// --algo pins every scenario to one registry spec (sched/registry.h) so a
// single portfolio member can be fuzzed in isolation. --gang forces every
// scenario gang-heavy (all tasks gangs, >= 2 workers, single shard) so a
// CI slice can hammer the multi-worker occupancy paths specifically;
// --big-batch forces every scenario into the capacity profile (one closed
// burst of 65536..200000 tasks through the wide-header search path).
// On the first oracle violation it shrinks the scenario to a minimal
// still-failing repro, prints both replay tokens, optionally writes them to
// <artifact-dir>/failing_tokens.txt (uploaded by CI), and exits 1.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "sched/registry.h"
#include "testing/harness.h"
#include "testing/oracles.h"
#include "testing/scenario.h"
#include "testing/shrink.h"

namespace {

constexpr std::uint64_t kDefaultBaseSeed = 0x52AD5FEEDULL;

struct Args {
  std::uint64_t scenarios = 200;
  std::uint64_t seed = kDefaultBaseSeed;
  std::uint32_t shrink_budget = 150;
  std::string replay_token;
  std::string artifact_dir;
  std::string algo_spec;  ///< empty = each scenario's own portfolio draw
  bool gang_heavy = false;
  bool big_batch = false;
  bool list_oracles = false;
  bool list_algos = false;
  rtds::testing::HarnessOptions harness;
};

void usage(std::ostream& os) {
  os << "usage: rtds_fuzz [--scenarios N] [--seed S] [--no-threaded]\n"
        "                 [--time-scale X] [--shrink-budget N]\n"
        "                 [--artifact-dir DIR] [--algo SPEC] [--gang]\n"
        "                 [--big-batch]\n"
        "       rtds_fuzz --replay <token>\n"
        "       rtds_fuzz --list-oracles\n"
        "       rtds_fuzz --list-algos\n";
}

/// Parses all of `text` into `out`, as rtds_cli does: integers in decimal
/// or with a 0x prefix in hex, floating point in decimal. False for an
/// empty string, a stray character, overflow or a non-finite value.
template <typename T>
bool parse_number(std::string_view text, T& out) {
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(text.data(), text.data() + text.size(), out);
  } else if (text.starts_with("0x") || text.starts_with("0X")) {
    text.remove_prefix(2);
    r = std::from_chars(text.data(), text.data() + text.size(), out, 16);
  } else {
    r = std::from_chars(text.data(), text.data() + text.size(), out);
  }
  return !text.empty() && r.ec == std::errc{} &&
         r.ptr == text.data() + text.size() && std::isfinite(double(out));
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag whose value is missing or does not parse whole gets
    // the usage text; so does a sweep of zero scenarios (it would pass
    // vacuously) and a time scale the threaded backend cannot run.
    const auto bad = [&](const char* v) {
      std::cerr << "rtds_fuzz: bad " << a << " value '" << (v ? v : "")
                << "'\n";
      return false;
    };
    if (a == "--scenarios") {
      const char* v = next();
      if (!v || !parse_number(v, args.scenarios) || args.scenarios == 0) {
        return bad(v);
      }
    } else if (a == "--seed") {
      const char* v = next();
      if (!v || !parse_number(v, args.seed)) return bad(v);
    } else if (a == "--shrink-budget") {
      const char* v = next();
      if (!v || !parse_number(v, args.shrink_budget)) return bad(v);
    } else if (a == "--time-scale") {
      const char* v = next();
      double& scale = args.harness.threaded_time_scale;
      if (!v || !parse_number(v, scale) || !(scale > 0.0)) return bad(v);
    } else if (a == "--no-threaded") {
      args.harness.run_threaded = false;
    } else if (a == "--replay") {
      const char* v = next();
      if (!v) return false;
      args.replay_token = v;
    } else if (a == "--artifact-dir") {
      const char* v = next();
      if (!v) return false;
      args.artifact_dir = v;
    } else if (a == "--algo") {
      const char* v = next();
      if (!v) return false;
      args.algo_spec = v;
    } else if (a == "--gang") {
      args.gang_heavy = true;
    } else if (a == "--big-batch") {
      args.big_batch = true;
    } else if (a == "--list-oracles") {
      args.list_oracles = true;
    } else if (a == "--list-algos") {
      args.list_algos = true;
    } else if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(0);
    } else {
      std::cerr << "rtds_fuzz: unknown argument '" << a << "'\n";
      return false;
    }
  }
  return true;
}

void save_tokens(const std::string& dir, const std::string& original,
                 const std::string& minimal) {
  if (dir.empty()) return;
  std::ofstream out(dir + "/failing_tokens.txt", std::ios::app);
  if (!out) {
    std::cerr << "rtds_fuzz: cannot write to " << dir << "\n";
    return;
  }
  out << "original " << original << "\n";
  out << "minimal  " << minimal << "\n";
}

int report_failure(const rtds::testing::ScenarioResult& result,
                   const Args& args) {
  std::cerr << "\nORACLE VIOLATION\n" << result.to_string() << "\n";
  std::cerr << "\nshrinking (budget " << args.shrink_budget << " runs)...\n";
  const rtds::testing::ShrinkResult shrunk = rtds::testing::shrink(
      result.scenario, args.harness, args.shrink_budget);
  std::cerr << "minimal repro after " << shrunk.runs << " runs:\n"
            << shrunk.result.to_string() << "\n";
  std::cerr << "\nreplay with: rtds_fuzz --replay " << shrunk.result.token
            << "\n";
  save_tokens(args.artifact_dir, result.token, shrunk.result.token);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage(std::cerr);
    return 2;
  }

  if (args.list_oracles) {
    for (const std::string& name : rtds::testing::oracle_names()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  if (args.list_algos) {
    const auto& registry = rtds::sched::AlgorithmRegistry::builtin();
    for (const std::string& key : registry.keys()) {
      std::cout << key << "  —  " << registry.summary(key) << "\n";
    }
    return 0;
  }

  // Resolve --algo up front: a typo'd spec should fail with the registry's
  // message before the sweep starts, and pinning the CANONICAL spec keeps
  // replay tokens identical to what an unpinned run of that spec would use.
  std::string pinned_spec;
  if (!args.algo_spec.empty()) {
    const auto canonical =
        rtds::sched::AlgorithmRegistry::builtin().canonicalize(
            args.algo_spec);
    if (!canonical) {
      std::cerr << "rtds_fuzz: invalid --algo spec '" << args.algo_spec
                << "' (see --list-algos)\n";
      return 2;
    }
    pinned_spec = *canonical;
    std::cout << "rtds_fuzz: pinned algorithm " << pinned_spec << "\n";
  }

  if (!args.replay_token.empty()) {
    const auto scenario = rtds::testing::decode_token(args.replay_token);
    if (!scenario) {
      std::cerr << "rtds_fuzz: malformed replay token\n";
      return 2;
    }
    const rtds::testing::ScenarioResult result =
        rtds::testing::run_scenario(*scenario, args.harness);
    std::cout << result.to_string() << "\n";
    return result.ok() ? 0 : 1;
  }

  std::uint64_t threaded_runs = 0;
  std::uint64_t sharded_runs = 0;
  std::uint64_t total_tasks = 0;
  std::uint64_t total_vertices = 0;
  const auto sweep_start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < args.scenarios; ++i) {
    rtds::testing::Scenario scenario =
        rtds::testing::generate_scenario(args.seed, i);
    if (!pinned_spec.empty()) scenario.algo_spec = pinned_spec;
    if (args.gang_heavy) {
      // Force a gang-heavy shape AFTER generation (the draw itself stays
      // untouched, so replay tokens from this slice decode normally).
      if (scenario.workers < 2) scenario.workers = 2;
      scenario.num_shards = 1;
      scenario.gang_permille = 1000;
      if (scenario.gang_max_workers < 2 ||
          scenario.gang_max_workers > scenario.workers) {
        scenario.gang_max_workers = scenario.workers;
      }
    }
    if (args.big_batch) {
      // Force the capacity profile AFTER generation, like --gang: the draw
      // itself stays untouched so replay tokens decode normally. Profile
      // randomness comes from a substream of the scenario's own seed, so a
      // given (sweep seed, index) always yields the same big-batch shape.
      rtds::Xoshiro256ss profile_rng(rtds::derive_seed(
          scenario.seed, rtds::stream_id("fuzz.big_batch"), i));
      rtds::testing::apply_big_batch_profile(scenario, profile_rng);
      if (!pinned_spec.empty()) scenario.algo_spec = pinned_spec;
    }
    const rtds::testing::ScenarioResult result =
        rtds::testing::run_scenario(scenario, args.harness);
    if (!result.ok()) {
      std::cerr << "scenario " << i << " of sweep seed 0x" << std::hex
                << args.seed << std::dec << " failed\n";
      return report_failure(result, args);
    }
    threaded_runs += result.threaded_ran ? 1 : 0;
    sharded_runs += result.shard_runs.empty() ? 0 : 1;
    total_tasks += result.sim.metrics.total_tasks;
    total_vertices += result.sim.metrics.vertices_generated;
    if ((i + 1) % 100 == 0) {
      std::cerr << "  " << (i + 1) << "/" << args.scenarios
                << " scenarios clean\n";
    }
  }
  const double sweep_secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - sweep_start)
          .count();
  std::cout << "rtds_fuzz: " << args.scenarios << " scenarios (seed 0x"
            << std::hex << args.seed << std::dec << "), " << total_tasks
            << " tasks, " << threaded_runs << " threaded runs, "
            << sharded_runs << " sharded runs — all oracles passed\n";
  std::cout << "rtds_fuzz: " << total_vertices
            << " search vertices generated, ";
  if (sweep_secs > 0) {
    std::cout << static_cast<std::uint64_t>(double(args.scenarios) /
                                            sweep_secs)
              << " scenarios/sec (" << args.scenarios << " in ";
  } else {
    std::cout << "? scenarios/sec (" << args.scenarios << " in ";
  }
  std::cout.setf(std::ios::fixed);
  std::cout.precision(2);
  std::cout << sweep_secs << "s)\n";
  std::cout.unsetf(std::ios::fixed);
  return 0;
}
