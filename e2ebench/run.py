#!/usr/bin/env python3
"""End-to-end simulator benchmark: builds e2ebench from source and runs it.

One workload:
    python3 e2ebench/run.py --workload paper128 --seed 1 --seconds 10 --trace 0

Every workload, timed and traced, one after another:
    python3 e2ebench/run.py --all --seed 1 --seconds 10

Run from the repository root. The build goes to .bench_build/e2ebench
(CMake, Release). Build output goes to stderr; stdout carries the metric
lines and, last, one JSON object with the keys correct, attempted, failed
and metrics. The exit code is non-zero when the build fails, an output
check fails, or the run does not finish in time.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ["paper128", "flat32k", "zones131k", "chaos4k"]
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no simulator sources at src/ -- run from the "
                 "repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    """Runs the harness once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError:
        sys.stderr.write(proc.stdout)
        print("e2ebench: no result line", file=sys.stderr)
        return proc.returncode or 1, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, timed then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")

    build()
    if args.workload:
        code, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        return code
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            code, _ = run_one(workload, args.seed, args.seconds, trace)
            worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
