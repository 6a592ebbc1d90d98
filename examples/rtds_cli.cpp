// Command-line experiment driver: run any cell of the paper's evaluation
// grid (or the extensions) without recompiling.
//
//   ./build/examples/rtds_cli --algo=rt_sads --workers=10 --replication=0.3
//       --sf=1 --txns=1000 --reps=10 [--reclaim] [--quantum=fixed:5ms]
//       [--trace=trace.csv] [--gantt=gantt.csv] [--csv]
//
// --algo takes any registry spec (sched/registry.h), e.g. rt_sads, d_cols,
// d_cols?max_successors=8, edf_ff, edf_bf, myopic?window=7, packing,
// multicrit?sort=lpt&fit=next.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/table.h"
#include "machine/schedule_export.h"
#include "sched/registry.h"
#include "sched/trace.h"

namespace {

using namespace rtds;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n\n"
            << "usage: rtds_cli [--algo=NAME] [--workers=N] "
               "[--replication=R] [--sf=SF]\n"
            << "                [--txns=N] [--reps=N] [--seed=S] "
               "[--comm-ms=C] [--vertex-us=V]\n"
            << "                [--quantum=self|fixed:<ms>ms] [--reclaim]\n"
            << "                [--trace=FILE] [--gantt=FILE] [--csv]\n"
            << "algorithms (registry specs, see sched/registry.h):\n";
  for (const std::string& key : sched::AlgorithmRegistry::builtin().keys()) {
    std::cerr << "  " << key << "  —  "
              << sched::AlgorithmRegistry::builtin().summary(key) << "\n";
  }
  std::exit(2);
}

/// "--key=value" parser; returns true and fills `value` when `arg` is
/// "--key=..." (or bare "--key" with empty value).
bool match_flag(const std::string& arg, const std::string& key,
                std::string& value) {
  const std::string prefix = "--" + key;
  if (arg == prefix) {
    value.clear();
    return true;
  }
  if (arg.rfind(prefix + "=", 0) == 0) {
    value = arg.substr(prefix.size() + 1);
    return true;
  }
  return false;
}

/// The whole of `v` as a finite number (integers may be "0x" hex), or
/// usage().
template <typename T>
T parse_number(const std::string& flag, std::string_view v) {
  const std::string text(v);
  T out{};
  std::from_chars_result r{};
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(v.data(), v.data() + v.size(), out);
  } else if (v.starts_with("0x") || v.starts_with("0X")) {
    v.remove_prefix(2);
    r = std::from_chars(v.data(), v.data() + v.size(), out, 16);
  } else {
    r = std::from_chars(v.data(), v.data() + v.size(), out);
  }
  if (v.empty() || r.ec != std::errc{} || r.ptr != v.data() + v.size() ||
      !std::isfinite(double(out))) {
    usage("bad --" + flag + " value '" + text + "'");
  }
  return out;
}

std::unique_ptr<sched::PhaseAlgorithm> make_algorithm(
    const std::string& spec) {
  try {
    return sched::AlgorithmRegistry::builtin().make(spec);
  } catch (const Error& e) {
    usage(e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string algo_spec = "rt_sads";
  exp::ExperimentConfig cfg;
  std::string trace_path, gantt_path;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (match_flag(arg, "algo", v)) {
      algo_spec = v;
    } else if (match_flag(arg, "workers", v)) {
      cfg.num_workers = parse_number<std::uint32_t>("workers", v);
    } else if (match_flag(arg, "replication", v)) {
      cfg.replication_rate = parse_number<double>("replication", v);
    } else if (match_flag(arg, "sf", v)) {
      cfg.scaling_factor = parse_number<double>("sf", v);
    } else if (match_flag(arg, "txns", v)) {
      cfg.num_transactions = parse_number<std::uint32_t>("txns", v);
    } else if (match_flag(arg, "reps", v)) {
      cfg.repetitions = parse_number<std::uint32_t>("reps", v);
    } else if (match_flag(arg, "seed", v)) {
      cfg.base_seed = parse_number<std::uint64_t>("seed", v);
    } else if (match_flag(arg, "comm-ms", v)) {
      cfg.comm_cost = msec(parse_number<std::int64_t>("comm-ms", v));
    } else if (match_flag(arg, "vertex-us", v)) {
      cfg.vertex_cost = usec(parse_number<std::int64_t>("vertex-us", v));
    } else if (match_flag(arg, "reclaim", v)) {
      cfg.reclaim_actual_costs = true;
    } else if (match_flag(arg, "quantum", v)) {
      if (v == "self") {
        cfg.quantum = exp::QuantumKind::kSelfAdjusting;
      } else if (v.rfind("fixed:", 0) == 0) {
        std::string_view ms = std::string_view(v).substr(6);
        if (ms.ends_with("ms")) ms.remove_suffix(2);
        cfg.quantum = exp::QuantumKind::kFixed;
        cfg.fixed_quantum = msec(parse_number<std::int64_t>("quantum", ms));
      } else {
        usage("bad --quantum (want self or fixed:<N>ms)");
      }
    } else if (match_flag(arg, "trace", v)) {
      trace_path = v;
    } else if (match_flag(arg, "gantt", v)) {
      gantt_path = v;
    } else if (match_flag(arg, "csv", v)) {
      csv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage("help requested");
    } else {
      usage("unknown flag '" + arg + "'");
    }
  }

  const auto algorithm = make_algorithm(algo_spec);

  // Aggregate across repetitions. The library validates the config as it
  // builds the first run; a rejected value is a usage error, not a crash.
  exp::Aggregate agg;
  try {
    agg = exp::run_repeated(cfg, *algorithm);
  } catch (const InvalidArgument& e) {
    usage(e.what());
  }
  exp::TextTable table({"metric", "mean", "±99%ci", "min", "max"});
  const auto add = [&](const std::string& name, const RunningStats& s,
                       double scale = 1.0) {
    table.add_row({name, exp::fmt(s.mean() * scale, 3),
                   exp::fmt(confidence_interval(s) * scale, 3),
                   exp::fmt(s.min() * scale, 3),
                   exp::fmt(s.max() * scale, 3)});
  };
  std::cout << "algorithm: " << algorithm->name() << ", workers "
            << cfg.num_workers << ", R " << cfg.replication_rate << ", SF "
            << cfg.scaling_factor << ", " << cfg.num_transactions
            << " transactions, " << cfg.repetitions << " repetitions"
            << (cfg.reclaim_actual_costs ? ", reclaiming" : "") << "\n\n";
  add("hit ratio (%)", agg.hit_ratio, 100.0);
  add("scheduled ratio (%)", agg.scheduled_ratio, 100.0);
  add("exec misses", agg.exec_misses);
  add("culled", agg.culled);
  add("phases", agg.phases);
  add("dead ends", agg.dead_ends);
  add("vertices", agg.vertices);
  add("host sched time (ms)", agg.sched_time_ms);
  add("mean quantum (ms)", agg.mean_quantum_ms);
  add("makespan (ms)", agg.makespan_ms);
  table.print(std::cout);
  if (csv) {
    std::cout << "\nCSV:\n";
    table.print_csv(std::cout);
  }

  // Optional single-run artifacts (seed 0 of the protocol).
  if (!trace_path.empty() || !gantt_path.empty()) {
    machine::Cluster cluster = cfg.make_cluster();
    sched::PhaseTraceRecorder recorder;
    exp::run_workload(cfg, *algorithm,
                      exp::make_workload(cfg, derive_seed(cfg.base_seed, 0)),
                      cluster, &recorder);

    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      recorder.write_csv(out);
      std::cout << "\nwrote phase trace to " << trace_path << " ("
                << recorder.records().size() << " phases)\n";
    }
    if (!gantt_path.empty()) {
      std::ofstream out(gantt_path);
      machine::write_completion_csv(cluster, out);
      std::cout << "wrote completion log to " << gantt_path << " ("
                << cluster.log().size() << " tasks)\n";
    }
  }
  return 0;
}
