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
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "db/placement.h"
#include "db/transaction.h"
#include "exp/experiment.h"
#include "exp/table.h"
#include "machine/cluster.h"
#include "machine/schedule_export.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/registry.h"
#include "sched/trace.h"
#include "sim/simulator.h"

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
      cfg.num_workers = std::uint32_t(std::atoi(v.c_str()));
    } else if (match_flag(arg, "replication", v)) {
      cfg.replication_rate = std::atof(v.c_str());
    } else if (match_flag(arg, "sf", v)) {
      cfg.scaling_factor = std::atof(v.c_str());
    } else if (match_flag(arg, "txns", v)) {
      cfg.num_transactions = std::uint32_t(std::atoi(v.c_str()));
    } else if (match_flag(arg, "reps", v)) {
      cfg.repetitions = std::uint32_t(std::atoi(v.c_str()));
    } else if (match_flag(arg, "seed", v)) {
      cfg.base_seed = std::strtoull(v.c_str(), nullptr, 0);
    } else if (match_flag(arg, "comm-ms", v)) {
      cfg.comm_cost = msec(std::atoll(v.c_str()));
    } else if (match_flag(arg, "vertex-us", v)) {
      cfg.vertex_cost = usec(std::atoll(v.c_str()));
    } else if (match_flag(arg, "reclaim", v)) {
      cfg.reclaim_actual_costs = true;
    } else if (match_flag(arg, "quantum", v)) {
      if (v == "self") {
        cfg.quantum = exp::QuantumKind::kSelfAdjusting;
      } else if (v.rfind("fixed:", 0) == 0) {
        cfg.quantum = exp::QuantumKind::kFixed;
        cfg.fixed_quantum = msec(std::atoll(v.c_str() + 6));
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

  // Aggregate across repetitions.
  const exp::Aggregate agg = exp::run_repeated(cfg, *algorithm);
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
    Xoshiro256ss rng(derive_seed(cfg.base_seed, 0));
    const db::GlobalDatabase database(cfg.database, rng);
    const db::Placement placement = db::Placement::rotation(
        cfg.database.num_subdbs, cfg.num_workers, cfg.replication_rate);
    db::TransactionWorkloadConfig txn_cfg;
    txn_cfg.num_transactions = cfg.num_transactions;
    txn_cfg.scaling_factor = cfg.scaling_factor;
    txn_cfg.fill_actual_costs = cfg.reclaim_actual_costs;
    const auto txns = db::generate_transactions(database, txn_cfg, rng);
    const auto workload = db::to_tasks(txns, database, placement, txn_cfg);

    machine::Cluster cluster(
        cfg.num_workers,
        machine::Interconnect::cut_through(cfg.num_workers, cfg.comm_cost),
        cfg.reclaim_actual_costs ? machine::ReclaimMode::kReclaim
                                 : machine::ReclaimMode::kWorstCase);
    sim::Simulator sim;
    sched::SimBackend backend(cluster, sim);
    const auto quantum = cfg.make_quantum();
    sched::PipelineConfig pipeline_cfg;
    pipeline_cfg.vertex_generation_cost = cfg.vertex_cost;
    pipeline_cfg.phase_overhead = cfg.phase_overhead;
    sched::PhaseTraceRecorder recorder;
    const sched::PhasePipeline pipeline(*algorithm, *quantum, pipeline_cfg);
    pipeline.run(workload, backend, &recorder);

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
