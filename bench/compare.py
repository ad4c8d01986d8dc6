#!/usr/bin/env python3
"""Checks a bench result file, optionally against a committed baseline.

    python3 bench/compare.py RUN.json [--baseline BASE.json] [--check EXPR]...

Both files hold the result rows every bench binary writes with --json_out
(WriteResultsJson in bench/bench_common.h):

    {"bench": ..., "label": ..., "config": {...},
     "rows": [{"name": "fig4/url/continuous/total_work", "value": 576000,
               "unit": "work", "exact": true}, ...]}

With --baseline, the run must have exactly the baseline's row names, and
each row the baseline marks exact must equal its baseline value.  The other
rows are printed with their ratio to the baseline.  A baseline file may
hold a JSON list of such result sets, oldest first (a trajectory such as
BENCH_deployment.json); the run is compared against the last one.

Each --check is a Python comparison over row values, e.g.
    'fig4/url/continuous/final_error <= fig4/url/periodical/final_error'
A row name is any token containing '/', so write operators with spaces
around them.  A '*' in a name matches one path segment: the check runs once
for each run row the first starred name matches, with the starred names
bound to the same segments in order, and fails if nothing matches.  abs,
min and max are available.

Exits 1 if any row or check fails.
"""

import argparse
import json
import re
import sys

NAME = re.compile(r"[A-Za-z_*][\w.*]*(?:/[\w.*]+)+")


def load_rows(path):
    with open(path) as f:
        results = json.load(f)
    if isinstance(results, list):
        results = results[-1]
    return {row["name"]: row for row in results["rows"]}


def compare(run, base):
    failures = []
    if set(run) != set(base):
        failures.append(
            f"row set differs from the baseline: missing "
            f"{sorted(set(base) - set(run))}, "
            f"extra {sorted(set(run) - set(base))}")
    exact = 0
    for name in sorted(set(run) & set(base)):
        value, expected = run[name]["value"], base[name]["value"]
        if base[name]["exact"]:
            exact += 1
            if value != expected:
                failures.append(f"{name}: {value!r} != baseline {expected!r}")
        else:
            ratio = f" ({value / expected:.2f}x baseline)" if expected else ""
            print(f"{name}: {value:.6g} {run[name]['unit']}{ratio}")
    print(f"{exact} exact rows compared")
    return failures


def expand(check, names):
    """The check once per binding of its starred names' segments."""
    starred = [n for n in NAME.findall(check) if "*" in n]
    if not starred:
        return [check]
    pattern = re.compile(
        "^" + re.escape(starred[0]).replace(r"\*", "([^/]+)") + "$")
    stars = starred[0].count("*")
    if any(n.count("*") != stars for n in starred):
        raise ValueError(f"starred names differ in '*' count: {check}")
    expanded = []
    for name in sorted(names):
        match = pattern.match(name)
        if match:
            segments = match.groups()
            expanded.append(NAME.sub(
                lambda m: re.sub(r"\*", lambda _, s=iter(segments): next(s),
                                 m.group(0)),
                check))
    return expanded


def evaluate(check, run):
    failures = []
    instances = expand(check, run)
    if not instances:
        return [f"check matches no rows: {check}"]
    for instance in instances:
        missing = [n for n in NAME.findall(instance) if n not in run]
        if missing:
            failures.append(f"{instance}: no row {missing}")
            continue
        expression = NAME.sub(lambda m: repr(run[m.group(0)]["value"]),
                              instance)
        ok = eval(expression, {"__builtins__": {}},
                  {"abs": abs, "min": min, "max": max})
        print(f"{'ok  ' if ok else 'FAIL'} {instance}   [{expression}]")
        if not ok:
            failures.append(f"check failed: {instance}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("run")
    parser.add_argument("--baseline")
    parser.add_argument("--check", action="append", default=[])
    args = parser.parse_args()

    run = load_rows(args.run)
    failures = compare(run, load_rows(args.baseline)) if args.baseline else []
    for check in args.check:
        failures += evaluate(check, run)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{len(run)} rows, {len(args.check)} checks, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
