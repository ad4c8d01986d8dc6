#!/usr/bin/env python3
"""Turns deploybench output into one result set in the bench row schema.

    python3 bench/deployment_rows.py LOG [LOG...] [--label L] [--out F]

Each LOG is the stdout of `python3 deploybench/run.py` (one run, several,
or `--all`).  Every `--trace 0` run there starts with a
`deploy_bench workload=... seed=... seconds=... trace=0` line and ends with
its JSON result line; traced runs are skipped.  Each workload's five
end-to-end metrics become rows named `<workload>/<metric>`: the median over
that workload's runs.  `total_work` and `final_error` depend only on the
seed, so they are exact rows and must agree across runs.  `config` records
the seed, the run length in seconds and the runs per workload.

The set is written to F (default: stdout) in the shape
`bench/compare.py` reads, e.g.

    python3 bench/compare.py run.json --baseline BENCH_deployment.json

Exits 1 if a run is not `correct`, or if the runs disagree on the seed, the
run length, the workloads' run counts or an exact row.
"""

import argparse
import json
import re
import statistics
import sys

HEADER = re.compile(
    r"^deploy_bench workload=(\S+) seed=(\d+) seconds=(\d+) trace=([01])$")
EXACT = ("total_work", "final_error")


def untraced_results(lines):
    """(workload, seed, seconds, result) for each --trace 0 run."""
    runs = []
    current = None
    for line in lines:
        header = HEADER.match(line.strip())
        if header:
            current = header.groups() if header.group(4) == "0" else None
        elif current is not None and line.startswith("{"):
            workload, seed, seconds, _ = current
            runs.append((workload, int(seed), int(seconds), json.loads(line)))
            current = None
    return runs


def result_set(runs, label):
    """The ResultSet dict, or raises ValueError."""
    if not runs:
        raise ValueError("no --trace 0 results found")
    if len({(seed, seconds) for _, seed, seconds, _ in runs}) != 1:
        raise ValueError("runs differ in seed or run length")
    by_workload = {}
    for workload, _, _, result in runs:
        if not result["correct"]:
            raise ValueError(f"{workload}: a run reported correct: false")
        by_workload.setdefault(workload, []).append(result["metrics"])
    counts = {len(results) for results in by_workload.values()}
    if len(counts) != 1:
        raise ValueError(f"workloads have different run counts: {counts}")
    rows = []
    for workload, results in sorted(by_workload.items()):
        for metric, first in results[0].items():
            values = [r[metric]["value"] for r in results]
            exact = metric in EXACT
            if exact and len(set(values)) != 1:
                raise ValueError(f"{workload}/{metric} differs across runs: "
                                 f"{values}")
            rows.append({"name": f"{workload}/{metric}",
                         "value": values[0] if exact
                         else statistics.median(values),
                         "unit": first["unit"], "exact": exact})
    _, seed, seconds, _ = runs[0]
    return {"bench": "deployment", "label": label,
            "config": {"seed": seed, "seconds": seconds,
                       "runs": counts.pop()},
            "rows": rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("logs", nargs="+")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    lines = []
    for path in args.logs:
        with open(path) as f:
            lines += f.readlines()
    try:
        results = result_set(untraced_results(lines), args.label)
    except ValueError as error:
        print(f"deployment_rows.py: {error}", file=sys.stderr)
        return 1
    text = json.dumps(results, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
