// bench_paper — every closed-workload experiment of the paper's evaluation
// and its ablations/extensions, in DESIGN.md's index order:
//
//   FIG5 (with TAB-STATS), FIG6, TAB-SF, ABL-Q, ABL-H, ABL-BASE, ABL-STRAT,
//   ABL-RECLAIM, ABL-NET, EXT-LOAD, EXT-BALANCE, EXT-MULTIHOST.
//
// Each experiment prints a header, a fixed-width table (hit ratios as mean
// ± 99% confidence half-width where the protocol repeats runs), a CSV block
// for plotting and, for the paper's figures, the two-tailed Welch
// difference-of-means lines. Every run is seeded, so the output is
// deterministic. Takes no arguments; the whole grid runs in a few seconds.
//
// Each experiment starts from exp::ExperimentConfig{} — the Sec. 5.1
// headline cell (m=10, R=30%, SF=1, 1000 bursty transactions, 10 runs) —
// and sets only what it varies.
//
//   ./build/bench/bench_paper
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/analysis.h"
#include "sched/algorithm.h"
#include "sched/partitioned.h"
#include "tasks/workload.h"

namespace {

using namespace rtds;
using namespace rtds::bench;
using search::Representation;
using search::SearchConfig;

const sched::PhaseAlgorithm& rt_sads() {
  static const auto algo = make_algo("rt_sads");
  return *algo;
}

const sched::PhaseAlgorithm& d_cols() {
  static const auto algo = make_algo("d_cols");
  return *algo;
}

std::string hit_pct(const RunningStats& hit_ratio) {
  return exp::fmt(hit_ratio.mean() * 100.0, 1);
}

std::string hit_ci(const RunningStats& hit_ratio) {
  return exp::fmt(confidence_interval(hit_ratio) * 100.0, 1);
}

/// Prints the table, then its CSV block.
void print_table(const exp::TextTable& table) {
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
}

/// One algorithm column of a figure: a display name plus its aggregates.
struct Series {
  std::string name;
  std::vector<exp::Aggregate> points;
};

/// Hit-ratio series over an x-axis: one row per x value, one (mean, ci)
/// column pair per series.
void print_hit_ratio_table(const std::string& x_name,
                           const std::vector<std::string>& x_values,
                           const std::vector<Series>& series) {
  std::vector<std::string> header{x_name};
  for (const Series& s : series) {
    header.push_back(s.name + " hit%");
    header.push_back("±99%ci");
  }
  exp::TextTable table(header);
  for (std::size_t i = 0; i < x_values.size(); ++i) {
    std::vector<std::string> row{x_values[i]};
    for (const Series& s : series) {
      row.push_back(hit_pct(s.points[i].hit_ratio));
      row.push_back(hit_ci(s.points[i].hit_ratio));
    }
    table.add_row(std::move(row));
  }
  print_table(table);
  std::cout << "\n";
}

/// The paper's difference-of-means protocol between two series at one
/// point of the x-axis.
void print_welch(const Series& a, const Series& b, std::size_t index,
                 const std::string& where) {
  const WelchResult w =
      exp::compare_hit_ratios(a.points[index], b.points[index]);
  std::cout << "Two-tailed Welch difference-of-means at " << where << ": t="
            << exp::fmt(w.t_statistic, 2)
            << ", df=" << exp::fmt(w.degrees_of_freedom, 1)
            << ", p=" << exp::fmt(w.p_value, 6)
            << (w.significant(0.01)
                    ? "  (significant at the paper's 0.01 level)"
                    : "  (NOT significant at 0.01)")
            << "\n\n";
}

/// Compliance gained between the first and last point of a series.
double gain(const Series& s) {
  return s.points.back().hit_ratio.mean() - s.points.front().hit_ratio.mean();
}

// FIG5 — deadline scalability (Figure 5), m = 2..10. Paper: RT-SADS keeps
// gaining as processors are added; D-COLS does not scale under tight
// deadlines, so the gap widens. TAB-STATS is the Welch line at m=10.
void fig5() {
  print_header("FIG5 — deadline-compliance scalability vs processor count",
               "Figure 5 (R=30%, SF=1, 1000 bursty transactions)",
               "RT-SADS rises with m; D-COLS stays nearly flat; gap widens");
  Series rt{"RT-SADS", {}};
  Series dc{"D-COLS", {}};
  std::vector<std::string> xs;
  for (std::uint32_t m = 2; m <= 10; m += 2) {
    exp::ExperimentConfig cfg;
    cfg.num_workers = m;
    xs.push_back(std::to_string(m));
    rt.points.push_back(exp::run_repeated(cfg, rt_sads()));
    dc.points.push_back(exp::run_repeated(cfg, d_cols()));
  }
  print_hit_ratio_table("processors", xs, {rt, dc});
  print_welch(rt, dc, xs.size() - 1, "m=10");

  std::cout << "Compliance gained from m=2 to m=10: RT-SADS +"
            << exp::fmt(gain(rt) * 100, 1) << "pp, D-COLS +"
            << exp::fmt(gain(dc) * 100, 1) << "pp\n";
  const double dc_last = dc.points.back().hit_ratio.mean();
  const double rel =
      dc_last > 0 ? rt.points.back().hit_ratio.mean() / dc_last : 0.0;
  std::cout << "RT-SADS / D-COLS at m=10: " << exp::fmt(rel, 2)
            << "x (paper: RT-SADS outperforms by as much as 60% as m grows)\n";
}

// FIG6 — replication rate R from 10% to 100% (Figure 6). Paper: D-COLS
// improves as R grows (processor choice matters less); RT-SADS stays ahead.
void fig6() {
  print_header("FIG6 — deadline compliance vs database replication rate",
               "Figure 6 (P=10, SF=1, 1000 bursty transactions)",
               "both rise with R; D-COLS gains more; RT-SADS stays ahead");
  Series rt{"RT-SADS", {}};
  Series dc{"D-COLS", {}};
  std::vector<std::string> xs;
  for (int pct = 10; pct <= 100; pct += 10) {
    exp::ExperimentConfig cfg;
    cfg.replication_rate = double(pct) / 100.0;
    xs.push_back(std::to_string(pct) + "%");
    rt.points.push_back(exp::run_repeated(cfg, rt_sads()));
    dc.points.push_back(exp::run_repeated(cfg, d_cols()));
  }
  print_hit_ratio_table("replication", xs, {rt, dc});
  print_welch(rt, dc, 0, "R=10%");
  print_welch(rt, dc, xs.size() - 1, "R=100%");
  std::cout << "Gain from R=10% to R=100%: D-COLS +"
            << exp::fmt(gain(dc) * 100, 1) << "pp, RT-SADS +"
            << exp::fmt(gain(rt) * 100, 1) << "pp\n";
}

// TAB-SF — the SF x m grid of Sec. 5.1 (SF in [1, 3], tight to loose
// deadlines). Compliance grows with SF; the gap narrows under loose
// deadlines because feasibility stops being the binding constraint.
void tab_sf() {
  print_header("TAB-SF — deadline compliance across laxity (SF) and m",
               "Sec. 5.1 experiment grid (R=30%, SF in {1,2,3})",
               "compliance rises with SF; RT-SADS >= D-COLS everywhere");
  exp::TextTable table(
      {"SF", "m", "RT-SADS hit%", "±ci", "D-COLS hit%", "±ci", "ratio"});
  for (double sf : {1.0, 2.0, 3.0}) {
    for (std::uint32_t m : {2u, 6u, 10u}) {
      exp::ExperimentConfig cfg;
      cfg.num_workers = m;
      cfg.scaling_factor = sf;
      const exp::Aggregate rt = exp::run_repeated(cfg, rt_sads());
      const exp::Aggregate dc = exp::run_repeated(cfg, d_cols());
      const double ratio = dc.hit_ratio.mean() > 0
                               ? rt.hit_ratio.mean() / dc.hit_ratio.mean()
                               : 0.0;
      table.add_row({exp::fmt(sf, 0), std::to_string(m),
                     hit_pct(rt.hit_ratio), hit_ci(rt.hit_ratio),
                     hit_pct(dc.hit_ratio), hit_ci(dc.hit_ratio),
                     exp::fmt(ratio, 2)});
    }
  }
  print_table(table);
}

// ABL-Q — the self-adjusting criterion Q_s(j) <= max(Min_Slack, Min_Load)
// of Sec. 4.2 against fixed quanta: tiny quanta waste the pipeline on
// phase turnover, huge ones violate slack; self-adjusting needs no tuning.
void abl_q() {
  print_header("ABL-Q — self-adjusting vs fixed scheduling quanta",
               "Sec. 4.2 (criterion of Fig. 3) on the Figure-5 headline cell",
               "self-adjusting ~= best fixed quantum, without tuning");
  exp::TextTable table({"quantum policy", "hit%", "±ci", "phases",
                        "mean Q_s (ms)", "sched time (ms)"});
  const auto run_with = [&](const exp::ExperimentConfig& cfg,
                            const std::string& name) {
    const exp::Aggregate a = exp::run_repeated(cfg, rt_sads());
    table.add_row({name, hit_pct(a.hit_ratio), hit_ci(a.hit_ratio),
                   exp::fmt(a.phases.mean(), 0),
                   exp::fmt(a.mean_quantum_ms.mean(), 2),
                   exp::fmt(a.sched_time_ms.mean(), 1)});
  };
  run_with(exp::ExperimentConfig{}, "self-adjusting (paper)");
  for (std::int64_t q_us : {100, 500, 2000, 10000, 50000}) {
    exp::ExperimentConfig cfg;
    cfg.quantum = exp::QuantumKind::kFixed;
    cfg.fixed_quantum = usec(q_us);
    run_with(cfg, "fixed " + exp::fmt(double(q_us) / 1000.0, 1) + "ms");
  }
  print_table(table);
}

// ABL-H — where RT-SADS's advantage comes from (Secs. 3, 4.4): the CE
// load-balancing cost, the EDF task order and skipping unplaceable tasks;
// for D-COLS, processor skipping and limited-backtracking successor caps.
void abl_h() {
  print_header("ABL-H — heuristic and cost-function ablations",
               "Secs. 3 and 4.4 design choices on the Figure-5 headline cell",
               "full RT-SADS on top; each removed mechanism costs compliance");
  exp::TextTable table(
      {"variant", "hit%", "±ci", "dead-ends/run", "backtracks/phase"});
  const auto run_with = [&](const sched::PhaseAlgorithm& algo) {
    const exp::Aggregate a = exp::run_repeated(exp::ExperimentConfig{}, algo);
    table.add_row({algo.name(), hit_pct(a.hit_ratio), hit_ci(a.hit_ratio),
                   exp::fmt(a.dead_ends.mean(), 0),
                   exp::fmt(a.backtracks_per_phase.mean(), 2)});
  };
  const auto run_spec = [&](const char* spec) { run_with(*make_algo(spec)); };
  const auto run_config = [&](const char* name, const SearchConfig& cfg) {
    run_with(sched::TreeSearchAlgorithm(name, cfg));
  };

  // SearchConfig{} is RT-SADS: assignment-oriented, depth-first, EDF order.
  run_spec("rt_sads");
  run_spec("rt_sads?cost=off");
  run_spec("rt_sads?cost=off&order=min_comm");
  run_spec("rt_sads?cost=off&order=index");
  SearchConfig batch_order;
  batch_order.task_order = search::TaskOrder::kBatchOrder;
  run_config("RT-SADS/batch-order", batch_order);
  SearchConfig min_slack;
  min_slack.task_order = search::TaskOrder::kMinSlack;
  run_config("RT-SADS/min-slack", min_slack);
  SearchConfig strict_expand;
  strict_expand.skip_unplaceable_tasks = false;
  run_config("RT-SADS/strict-expand", strict_expand);

  run_spec("d_cols");
  SearchConfig strict_rr;
  strict_rr.representation = Representation::kSequenceOriented;
  strict_rr.use_load_balance_cost = false;
  strict_rr.skip_saturated_processors = false;
  run_config("D-COLS/strict-rr", strict_rr);
  run_spec("d_cols?level_order=least_loaded");
  run_spec("d_cols?max_successors=4");
  run_spec("d_cols?max_successors=16");
  // Sequence-oriented but WITH the CE cost function (on by default): how
  // much of the gap is representation vs cost model.
  SearchConfig with_cost;
  with_cost.representation = Representation::kSequenceOriented;
  run_config("D-COLS/+cost-fn", with_cost);

  print_table(table);
}

// ABL-BASE — the search schedulers against greedy baselines sharing the
// same predictive feasibility test: EDF best-fit, EDF first-fit and a
// Ramamritham-Stankovic-style myopic window (the paper's ref [6] lineage).
void abl_base() {
  print_header("ABL-BASE — search schedulers vs greedy baselines",
               "extension of the Sec. 5 evaluation (R=30%, SF=1)",
               "RT-SADS >= EDF-best-fit >= myopic >= EDF-first-fit > D-COLS");
  std::vector<std::unique_ptr<sched::PhaseAlgorithm>> algos;
  for (const char* spec :
       {"rt_sads", "d_cols", "edf_bf", "edf_ff", "myopic"}) {
    algos.push_back(make_algo(spec));
  }

  std::vector<std::string> header{"m"};
  for (const auto& a : algos) header.push_back(a->name() + " hit%");
  exp::TextTable table(header);
  for (std::uint32_t m : {2u, 4u, 6u, 8u, 10u}) {
    exp::ExperimentConfig cfg;
    cfg.num_workers = m;
    std::vector<std::string> row{std::to_string(m)};
    for (const auto& a : algos) {
      row.push_back(hit_pct(exp::run_repeated(cfg, *a).hit_ratio));
    }
    table.add_row(std::move(row));
  }
  print_table(table);
}

// ABL-STRAT — Sec. 3 consumes the candidate list depth-first. Best-first
// degenerates toward breadth-first (CE grows with depth) and spends its
// quantum re-expanding shallow siblings.
void abl_strat() {
  print_header("ABL-STRAT — depth-first vs best-first candidate consumption",
               "Sec. 3 search-strategy choice on the Figure-5 sweep",
               "depth-first schedules far more under the same quantum");
  SearchConfig bfs_cfg;
  bfs_cfg.strategy = search::SearchStrategy::kBestFirst;
  const sched::TreeSearchAlgorithm dfs("RT-SADS/depth-first", SearchConfig{});
  const sched::TreeSearchAlgorithm bfs("RT-SADS/best-first", bfs_cfg);

  exp::TextTable table({"m", "depth-first hit%", "±ci", "best-first hit%",
                        "±ci"});
  for (std::uint32_t m : {2u, 6u, 10u}) {
    exp::ExperimentConfig cfg;
    cfg.num_workers = m;
    const exp::Aggregate a = exp::run_repeated(cfg, dfs);
    const exp::Aggregate b = exp::run_repeated(cfg, bfs);
    table.add_row({std::to_string(m), hit_pct(a.hit_ratio),
                   hit_ci(a.hit_ratio), hit_pct(b.hit_ratio),
                   hit_ci(b.hit_ratio)});
  }
  print_table(table);
}

// ABL-RECLAIM — resource reclaiming (the paper's ref [3]): workers run the
// actual first-match cost and start the next task early. It never hurts,
// and the correction theorem holds because actual <= worst case.
void abl_reclaim() {
  print_header("ABL-RECLAIM — worst-case execution vs resource reclaiming",
               "extension: ref [3] of the paper, on the Figure-5 sweep",
               "reclaiming lifts compliance for both algorithms, never hurts");
  exp::TextTable table({"m", "RT-SADS wc%", "RT-SADS reclaim%",
                        "D-COLS wc%", "D-COLS reclaim%"});
  for (std::uint32_t m : {2u, 4u, 6u, 8u, 10u}) {
    exp::ExperimentConfig wc;
    wc.num_workers = m;
    exp::ExperimentConfig rec = wc;
    rec.reclaim_actual_costs = true;
    table.add_row({std::to_string(m),
                   hit_pct(exp::run_repeated(wc, rt_sads()).hit_ratio),
                   hit_pct(exp::run_repeated(rec, rt_sads()).hit_ratio),
                   hit_pct(exp::run_repeated(wc, d_cols()).hit_ratio),
                   hit_pct(exp::run_repeated(rec, d_cols()).hit_ratio)});
  }
  print_table(table);
}

// ABL-NET — the Sec. 2 cut-through assumption (distance-independent C):
// several magnitudes of C, and a store-and-forward 2D mesh whose cost grows
// with the Manhattan distance to the nearest replica.
void abl_net() {
  print_header("ABL-NET — communication cost model ablation",
               "Sec. 2 cut-through assumption on the Figure-5 headline cell",
               "larger C widens the RT-SADS lead; mesh ~ larger effective C");
  const exp::ExperimentConfig cfg;
  const auto mean_hit = [&](const machine::Interconnect& net,
                            const sched::PhaseAlgorithm& algo) {
    RunningStats s;
    for (std::uint32_t i = 0; i < cfg.repetitions; ++i) {
      machine::Cluster cluster(cfg.num_workers, net);
      const auto workload =
          exp::make_workload(cfg, bench_seed("interconnect", i));
      s.add(exp::run_workload(cfg, algo, workload, cluster).hit_ratio());
    }
    return hit_pct(s);
  };
  const auto row = [&](const std::string& name,
                       const machine::Interconnect& net) {
    return std::vector<std::string>{name, mean_hit(net, rt_sads()),
                                    mean_hit(net, d_cols())};
  };
  exp::TextTable table({"interconnect", "RT-SADS hit%", "D-COLS hit%"});
  for (std::int64_t c_ms : {0, 1, 5, 20}) {
    table.add_row(row(
        "cut-through C=" + std::to_string(c_ms) + "ms",
        machine::Interconnect::cut_through(cfg.num_workers, msec(c_ms))));
  }
  for (std::int64_t hop_ms : {1, 2, 5}) {
    table.add_row(
        row("2D mesh hop=" + std::to_string(hop_ms) + "ms",
            machine::Interconnect::mesh(cfg.num_workers, msec(hop_ms))));
  }
  print_table(table);
}

// EXT-LOAD — the steady-state complement of the paper's single burst:
// Poisson arrivals at rising offered load on a synthetic workload with the
// paper's affinity and laxity structure. D-COLS's knee comes first because
// its scheduling cost per task scales with the backlog.
void ext_load() {
  print_header("EXT-LOAD — compliance vs offered load (steady state)",
               "extension of Sec. 5: Poisson arrivals instead of one burst",
               "both near 100% at low load; D-COLS's knee comes far earlier");
  exp::ExperimentConfig cfg;
  cfg.num_workers = 8;
  cfg.comm_cost = msec(2);
  cfg.repetitions = 5;
  const auto mean_hit = [&](const sched::PhaseAlgorithm& algo,
                            double offered_load) {
    tasks::WorkloadConfig wc;
    wc.num_tasks = 600;
    wc.num_processors = cfg.num_workers;
    wc.arrival = tasks::ArrivalPattern::kPoisson;
    // Offered load rho = mean_processing / (m * mean_interarrival).
    const double mean_proc_us = 3000.0;  // uniform [1,5]ms
    wc.processing_min = msec(1);
    wc.processing_max = msec(5);
    wc.mean_interarrival = SimDuration{std::int64_t(
        mean_proc_us / (offered_load * double(cfg.num_workers)))};
    wc.affinity_degree = 0.3;
    wc.laxity_min = 5.0;
    wc.laxity_max = 15.0;
    RunningStats s;
    for (std::uint32_t rep = 0; rep < cfg.repetitions; ++rep) {
      Xoshiro256ss rng(bench_seed("offered-load", rep));
      machine::Cluster cluster = cfg.make_cluster();
      s.add(exp::run_workload(cfg, algo, tasks::generate_workload(wc, rng),
                              cluster)
                .hit_ratio());
    }
    return hit_pct(s);
  };
  exp::TextTable table({"offered load", "RT-SADS hit%", "D-COLS hit%"});
  for (double rho : {0.2, 0.4, 0.6, 0.8, 1.0, 1.2}) {
    table.add_row({exp::fmt(rho, 1), mean_hit(rt_sads(), rho),
                   mean_hit(d_cols(), rho)});
  }
  print_table(table);
}

/// Exact median deadline margin (ms) over the executed tasks of a run.
double median_margin_ms(const std::vector<machine::CompletionRecord>& log) {
  if (log.empty()) return 0.0;
  std::vector<double> margins;
  margins.reserve(log.size());
  for (const machine::CompletionRecord& rec : log) {
    margins.push_back((rec.deadline - rec.end).millis());
  }
  std::sort(margins.begin(), margins.end());
  const std::size_t mid = margins.size() / 2;
  return margins.size() % 2 == 1 ? margins[mid]
                                 : (margins[mid - 1] + margins[mid]) / 2.0;
}

// EXT-BALANCE — Sec. 3 predicts that a budgeted sequence-oriented search
// leaves "many processors idle while others are heavily loaded". Measures
// per-worker busy time, the imbalance (max-min)/max, idle workers and the
// median deadline margin of the executed tasks on the headline cell.
void ext_balance() {
  print_header("EXT-BALANCE — worker load balance and deadline margins",
               "quantifies Sec. 3's idle-processors claim (m=10, R=30%, SF=1)",
               "RT-SADS spreads load evenly; D-COLS concentrates it");
  const exp::ExperimentConfig cfg;
  const auto workload = exp::make_workload(cfg, bench_seed("load-balance", 0));
  exp::TextTable table({"scheduler", "hit%", "busy mean (ms)",
                        "busy min..max (ms)", "imbalance", "idle workers",
                        "p50 margin (ms)"});
  for (const char* spec : {"rt_sads", "d_cols", "edf_bf"}) {
    const auto algo = make_algo(spec);
    machine::Cluster cluster = cfg.make_cluster();
    const sched::RunMetrics m =
        exp::run_workload(cfg, *algo, workload, cluster);
    const exp::BalanceSummary bal = exp::balance_summary(cluster);
    table.add_row(
        {algo->name(), exp::fmt(m.hit_ratio() * 100, 1),
         exp::fmt(bal.busy_ms.mean(), 1),
         exp::fmt(bal.busy_ms.min(), 1) + ".." + exp::fmt(bal.busy_ms.max(), 1),
         exp::fmt(bal.imbalance, 2), std::to_string(bal.idle_workers),
         exp::fmt(median_margin_ms(cluster.log()), 1)});
  }
  print_table(table);
}

// EXT-MULTIHOST — past the paper's single scheduling host: m = 8..32
// workers under 1, 2 and 4 hosts, each running RT-SADS over its shard of
// the workers (tasks routed by affinity). At high m scheduling capacity,
// not worker capacity, is the limit, so only sharded configs keep rising.
void ext_multihost() {
  print_header("EXT-MULTIHOST — 1 vs 2 vs 4 scheduling hosts",
               "extension: past the single-host throughput cap of Sec. 5",
               "curves agree at small m; only sharded configs keep rising");
  const exp::ExperimentConfig defaults;
  const auto quantum = defaults.make_quantum();
  const auto mean_hit = [&](std::uint32_t shards, std::uint32_t workers) {
    RunningStats s;
    for (std::uint32_t rep = 0; rep < 5; ++rep) {
      tasks::WorkloadConfig wc;
      wc.num_tasks = 2000;
      wc.num_processors = workers;
      wc.processing_min = msec(1);
      wc.processing_max = msec(5);
      wc.affinity_degree = 0.2;
      wc.laxity_min = 8.0;
      wc.laxity_max = 15.0;
      Xoshiro256ss rng(bench_seed("multihost", rep));
      const auto wl = tasks::generate_workload(wc, rng);

      sched::PartitionedConfig cfg;
      cfg.num_shards = shards;
      cfg.total_workers = workers;
      cfg.comm_cost = msec(3);
      cfg.pipeline.vertex_generation_cost = defaults.vertex_cost;
      cfg.pipeline.phase_overhead = defaults.phase_overhead;
      s.add(sched::run_partitioned(rt_sads(), *quantum, cfg, wl).hit_ratio());
    }
    return hit_pct(s);
  };
  exp::TextTable table({"workers", "1 host hit%", "2 hosts hit%",
                        "4 hosts hit%"});
  for (std::uint32_t m : {8u, 16u, 24u, 32u}) {
    table.add_row({std::to_string(m), mean_hit(1, m), mean_hit(2, m),
                   mean_hit(4, m)});
  }
  print_table(table);
}

}  // namespace

int main() {
  fig5();
  fig6();
  tab_sf();
  abl_q();
  abl_h();
  abl_base();
  abl_strat();
  abl_reclaim();
  abl_net();
  ext_load();
  ext_balance();
  ext_multihost();
  return 0;
}
