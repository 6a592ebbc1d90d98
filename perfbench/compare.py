#!/usr/bin/env python3
"""Collects benchmark results and compares two commits.

    # results of one checkout, one JSON line per run
    python3 perfbench/compare.py collect CHECKOUT --out base.jsonl \\
        [--workloads fig5_rtsads,...] [--seeds 1-10] [--trace 0]

    # parent and change in alternating order, seed by seed
    python3 perfbench/compare.py pairs PARENT CHANGE --out-base base.jsonl \\
        --out-change change.jsonl [--workloads ...] [--seeds 1-10]

    # run-to-run spread of one result set against the benchmark's bounds
    python3 perfbench/compare.py spread base.jsonl

    # per workload and metric: medians, quartiles, pairs won, verdict
    python3 perfbench/compare.py diff base.jsonl change.jsonl

A CHECKOUT is a directory holding BENCHMARK.json and the repository files;
each run is `python3 perfbench/run.py` there. A run failed when it exited
non-zero, printed no result or reported `"correct": false`; failed runs
give no metric values. Runs are paired by workload and seed, and a pair
with a failed run on either side is a pair the change did not win. Per
workload, `diff` first compares the failed runs: when the change has more
than the parent, the workload's verdict is "MORE FAILED RUNS" whatever its
metrics read. Metric verdicts follow the benchmark's rules: "improved"
needs the change to win at least 9 of 10 pairs (ties count for neither)
and the medians to differ by more than the parent's quartile spread; "no
worse" needs the change's median within the metric's bound of the
parent's, with the parent's spread within the bound too, or else every
change run better than every parent run; otherwise the metric is "worse"
when the spread allows telling, and "unresolved" when it does not.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_spec(path=None):
    spec = json.loads(Path(path or HERE.parent / "BENCHMARK.json").read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = m
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout, workload, seed, trace, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"run failed: {checkout} {workload} seed {seed} exit {proc.returncode}",
              file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit": proc.returncode, "result": result}


def append(path, record):
    with open(path, "a") as f:
        f.write(json.dumps(record) + "\n")


def read(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line]


def failed(record):
    result = record["result"]
    return record["exit"] != 0 or not result or result.get("correct") is not True


def failures(records):
    """{workload: (runs, failed runs)}."""
    out = {}
    for r in records:
        runs, bad = out.get(r["workload"], (0, 0))
        out[r["workload"]] = (runs + 1, bad + failed(r))
    return out


def series(records):
    """{(workload, metric): {seed: value}} over runs that did not fail."""
    out = {}
    for r in records:
        if failed(r):
            continue
        for name, m in r["result"]["metrics"].items():
            out.setdefault((r["workload"], name), {})[r["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_collect(args):
    spec, _ = load_spec(Path(args.checkout) / "BENCHMARK.json")
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            append(args.out, run_one(args.checkout, workload, seed, args.trace,
                                     spec["run_seconds"]))


def cmd_pairs(args):
    spec, _ = load_spec(Path(args.parent) / "BENCHMARK.json")
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    sides = [(args.parent, args.out_base), (args.change, args.out_change)]
    n = 0
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            order = sides if n % 2 == 0 else sides[::-1]
            for checkout, out in order:
                append(out, run_one(checkout, workload, seed, args.trace,
                                    spec["run_seconds"]))
            n += 1


def cmd_spread(args):
    _, metrics = load_spec()
    records = read(args.results)
    bad_runs = sum(failed(r) for r in records)
    print(f"{len(records)} runs, {bad_runs} failed")
    print(f"{'workload':16} {'metric':34} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for (workload, name), by_seed in sorted(series(records).items()):
        values = list(by_seed.values())
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = metrics.get(name, {}).get("bound")
        verdict = ""
        if bound is not None:
            if spread > bound:
                verdict, worst = "OVER BOUND", 2
            elif spread > bound / 3:
                verdict, worst = "over a third of bound", max(worst, 1)
            else:
                verdict = "steady"
        print(f"{workload:16} {name:34} {len(values):3d} {med:14.6g} "
              f"{spread:8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    return 1 if bad_runs or worst == 2 else 0


def verdict(a, b, pairs, better, bound):
    """Verdict for change values b against parent values a, paired by seed.

    `pairs` is the number of seeds run on either side; a seed missing from
    a or b (its run failed) is a pair the change did not win.
    """
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(a) & set(b))
    if not seeds:
        return 0, 0, "unresolved"
    wins = sum(1 for s in seeds if sign * (b[s] - a[s]) > 0)
    losses = sum(1 for s in seeds if sign * (b[s] - a[s]) < 0)
    qa, qb = quartiles([a[s] for s in seeds]), quartiles([b[s] for s in seeds])
    spread_abs = qa[2] - qa[0]
    diff = qb[1] - qa[1]
    if wins >= 0.9 * pairs and sign * diff > spread_abs:
        return wins, losses, "improved"
    if bound is None:
        return wins, losses, "unchanged" if wins == losses == 0 else "-"
    worse_share = -sign * diff / abs(qa[1]) if qa[1] else 0.0
    spread = spread_abs / abs(qa[1]) if qa[1] else 0.0
    all_better = all(sign * (y - x) > 0 for x in a.values() for y in b.values())
    if worse_share <= bound and (spread <= bound or all_better):
        return wins, losses, "no worse"
    if spread <= bound:
        return wins, losses, "WORSE"
    return wins, losses, "unresolved"


def cmd_diff(args):
    _, metrics = load_spec()
    base, change = read(args.base), read(args.change)
    seeds = {}
    for r in base + change:
        seeds.setdefault(r["workload"], set()).add(r["seed"])
    fa_runs, fb_runs = failures(base), failures(change)
    bad = False
    print(f"{'workload':16} {'failed runs: base':>18} {'change':>8}  verdict")
    for workload in sorted(seeds):
        na, ka = fa_runs.get(workload, (0, 0))
        nb, kb = fb_runs.get(workload, (0, 0))
        v = "MORE FAILED RUNS" if kb > ka else "ok"
        bad |= kb > ka
        print(f"{workload:16} {f'{ka}/{na}':>18} {f'{kb}/{nb}':>8}  {v}")
    print()
    a, b = series(base), series(change)
    print(f"{'workload':16} {'metric':34} {'base q1/med/q3':>36} "
          f"{'change q1/med/q3':>36} {'won':>7}  verdict")
    for key in sorted(set(a) | set(b)):
        workload, name = key
        m = metrics.get(name, {})
        n = len(seeds[workload])
        if key not in a or key not in b:
            side = "base" if key not in a else "change"
            print(f"{workload:16} {name:34} no runs without failure on {side}")
            bad = True
            continue
        wins, losses, v = verdict(a[key], b[key], n, m.get("better", "lower"),
                                  m.get("bound"))
        fa = "/".join(f"{x:.4g}" for x in quartiles(list(a[key].values())))
        fb = "/".join(f"{x:.4g}" for x in quartiles(list(b[key].values())))
        print(f"{workload:16} {name:34} {fa:>36} {fb:>36} {wins:3d}/{n:<3d}  {v}")
        bad |= v in ("WORSE", "unresolved")
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("checkout")
    c.add_argument("--out", required=True)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("pairs")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--out-base", required=True)
    c.add_argument("--out-change", required=True)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c = sub.add_parser("spread")
    c.add_argument("results")
    c = sub.add_parser("diff")
    c.add_argument("base")
    c.add_argument("change")
    args = p.parse_args()
    return {"collect": cmd_collect, "pairs": cmd_pairs, "spread": cmd_spread,
            "diff": cmd_diff}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
