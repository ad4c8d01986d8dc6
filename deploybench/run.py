#!/usr/bin/env python3
"""Builds and runs the cdpipe deployment benchmark.

    python3 deploybench/run.py --workload <name> [--seed 42] [--seconds N]
                               [--trace 0|1]
    python3 deploybench/run.py --all [--seed 42] [--seconds N]

Run from the root of a source checkout.  The first call configures and
builds `deploy_bench` (Release) under .bench_build/deploybench; later calls
only rebuild what changed.  The benchmark's stdout is passed through: its
last line is the JSON result object.  `--all` runs every workload from
BENCHMARK.json untraced and traced and exits non-zero if any run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "deploybench")
BINARY = os.path.join(BUILD_DIR, "deploy_bench")
# Leaves headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    for needed in ("src/CMakeLists.txt", "bench/bench_common.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"missing {needed}: run from a full cdpipe source checkout")
            return False
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "deploybench"), "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "3", "--target", "deploy_bench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only benchmark output.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(workload, seed, seconds, trace):
    """Runs one benchmark process; returns (exit code, parsed result)."""
    command = [BINARY, f"--workload={workload}", f"--seed={seed}",
               f"--seconds={seconds}", f"--trace={trace}",
               "--spill_root=" + os.path.join(BUILD_DIR, "spill")]
    if trace:
        command.append("--span_out=" + os.path.join(
            BUILD_DIR, f"spans_{workload}_{seed}.json"))
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S}s")
        return 1, None
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        log(f"{workload}: benchmark exited with {proc.returncode}")
        return proc.returncode, None
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    _, names = expected_metrics(trace)
    if set(result["metrics"]) != names:
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(set(result['metrics']) ^ names)}")
        return 1, None
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")
    if not build():
        return 2
    spec, _ = expected_metrics(0)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if not args.all:
        code, _ = run_once(args.workload, args.seed, args.seconds, args.trace)
        return code

    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, _ = run_once(workload, args.seed, args.seconds, trace)
            failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
