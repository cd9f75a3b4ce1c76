#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload rw-ooc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # self-test + every workload, small

The first call configures and builds perfbench/ (which compiles the
library from src/) into the build directory: $CARGO_TARGET_DIR if set,
else .bench_build.  A workload run prints one metadata line and, last,
one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 they are its per_layer metrics, where a
layer the workload does not use reports 0.  The exit code is non-zero
when the build fails, an output check fails, or the output does not
match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then (re)build the perfbench binary."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}, spec


def check_metrics(result, trace):
    """Hold the metric set and units to BENCHMARK.json."""
    declared, _ = declared_metrics(trace)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in declared:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric["unit"] != declared[name]:
            fail(f"metric {name} has unit {metric['unit']}, "
                 f"BENCHMARK.json says {declared[name]}")
    for name, unit in declared.items():
        if name in metrics:
            continue
        if not trace:
            fail(f"end-to-end metric {name} is missing")
        # A layer this workload does not call does no work.
        metrics[name] = {"value": 0.0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in declared}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="build, then run the benchmark's own tests")
    args = parser.parse_args()

    if args.smoke:
        build()
        done = subprocess.run(["ctest", "--output-on-failure",
                               "--test-dir", build_dir()], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S * 4)
        sys.exit(done.returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    _, spec = declared_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload}; one of {names}")

    binary = build()
    work_dir = os.path.join(build_dir(), "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"perfbench exited {done.returncode} without a result")
    result = json.loads(lines[-1])
    check_metrics(result, args.trace)
    print(lines[-2])
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
