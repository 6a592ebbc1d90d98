#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload fig5_rtsads --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

--seconds defaults to BENCHMARK.json's run_seconds, the run length its
bounds were calibrated for.

The binary and the repository's libraries are compiled (Release, hot-path
asserts off) into .bench_build/perfbench under the repository root; the
first call builds, later calls only check the build is current. Build
output goes to stderr so the last stdout line is the binary's JSON result.
With --trace 1 the traced run's spans are written to
.bench_build/perfbench-traces/<workload>.csv (the latest traced run of
each workload).

Exits non-zero without a result when the build fails (for instance when
the program sources are absent) and with the binary's exit code otherwise:
1 when any run failed a correctness check.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "perfbench-traces"
BINARY = BUILD / "perfbench"
# The binary stops measuring after 120 s; this limit only catches a hang,
# so a run always ends within three minutes.
BINARY_TIMEOUT_S = 160


def build() -> bool:
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    # Concurrent invocations in one checkout share the build tree.
    with open(BUILD.parent / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return False
    return BINARY.exists()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check traced runs are bit-identical to untraced ones")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if args.seconds is None and not args.selftest:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = float(spec["run_seconds"])

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [str(BINARY)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if args.trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out",
                    str(TRACES / f"{args.workload}.csv")]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=BINARY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
