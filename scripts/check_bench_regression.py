#!/usr/bin/env python3
"""Bench smoke gate: fail CI when a recorded benchmark regresses.

Runs a --json benchmark (bench_control_cycle, bench_micro_tick) at the
reference size a few times, takes the best pass per metric (single-run
numbers are noisy on shared runners), and compares against the
`ci_reference` block of the recorded reference JSON
(BENCH_control_cycle.json, BENCH_tick.json). Any metric falling more than
the tolerance below its recorded value fails the job.

Usage: check_bench_regression.py <bench-binary> [reference-json] [block]

`block` picks the reference block inside the JSON (default `ci_reference`).
A block may carry an `args` list (extra bench flags inserted before the
size argument).
All gated metrics are higher-is-better: record rates/speedups, never
milliseconds.

A/B mode gates the observability instrumentation instead of a recorded
reference: the same benchmark runs once per variant flag and the first
variant (instrumentation on) must stay within the tolerance of the second
(off). Best-of-RUNS per variant, same noise reasoning as above.

Usage: check_bench_regression.py --ab <bench-binary> [size] [tolerance]
    e.g. check_bench_regression.py --ab build/bench/bench_micro_tick 1024 0.10
"""

import json
import pathlib
import subprocess
import sys

RUNS = 3
TOLERANCE = 0.30  # fail on >30 % regression vs the recorded reference
AB_TOLERANCE = 0.10  # on-vs-off gate; generous for shared-runner noise


def best_of(bench: str, size: int, runs: int, extra_args=()) -> dict:
    best: dict = {}
    for i in range(runs):
        out = subprocess.run(
            [bench, "--json", *extra_args, str(size)],
            check=True, capture_output=True, text=True,
        ).stdout
        for case in json.loads(out):
            if case.get("nodes") != size:
                continue
            for key, value in case.items():
                if key == "nodes":
                    continue
                best[key] = max(best.get(key, 0.0), float(value))
        print(f"pass {i + 1}/{runs}: best so far "
              f"{json.dumps(best, sort_keys=True)}", flush=True)
    return best


def check_ab(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    bench = argv[0]
    size = int(argv[1]) if len(argv) > 1 else 1024
    tolerance = float(argv[2]) if len(argv) > 2 else AB_TOLERANCE

    print(f"== instrumentation ON (--obs=on), {size} nodes ==", flush=True)
    on = best_of(bench, size, RUNS, extra_args=("--obs=on",))
    print(f"== instrumentation OFF (--obs=off), {size} nodes ==", flush=True)
    off = best_of(bench, size, RUNS, extra_args=("--obs=off",))

    failed = False
    for key, off_value in sorted(off.items()):
        on_value = on.get(key)
        if on_value is None:
            print(f"FAIL {key}: metric missing from --obs=on output")
            failed = True
            continue
        floor = (1.0 - tolerance) * off_value
        overhead = (1.0 - on_value / off_value) * 100.0 if off_value else 0.0
        verdict = "ok" if on_value >= floor else "FAIL"
        print(f"{verdict} {key}: on {on_value:.2f} vs off {off_value:.2f} "
              f"({overhead:+.2f}% overhead, floor {floor:.2f})")
        failed |= on_value < floor
    return 1 if failed else 0


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--ab":
        return check_ab(sys.argv[2:])
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench = sys.argv[1]
    ref_path = pathlib.Path(
        sys.argv[2] if len(sys.argv) > 2 else "BENCH_control_cycle.json")

    block = sys.argv[3] if len(sys.argv) > 3 else "ci_reference"

    reference = json.loads(ref_path.read_text())[block]
    size = reference["nodes"]
    metrics = reference["metrics"]
    extra_args = tuple(reference.get("args", ()))

    measured = best_of(bench, size, RUNS, extra_args=extra_args)

    failed = False
    for key, ref_value in metrics.items():
        got = measured.get(key)
        if got is None:
            print(f"FAIL {key}: metric missing from bench output")
            failed = True
            continue
        floor = (1.0 - TOLERANCE) * ref_value
        verdict = "ok" if got >= floor else "FAIL"
        print(f"{verdict} {key}: measured {got:.2f} vs recorded "
              f"{ref_value:.2f} (floor {floor:.2f})")
        failed |= got < floor
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
