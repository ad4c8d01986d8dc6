#!/usr/bin/env python3
"""Fails when a --gtest_filter pattern in the CI workflow selects no test.

    python3 tools/check_gtest_filters.py [TEST_BIN_DIR]

Reads .github/workflows/ci.yml and finds every test-binary call that
carries `--gtest_filter='...'`.  Each colon-separated positive pattern is
handed to the binary of the same name in TEST_BIN_DIR (default
build/tests) with `--gtest_list_tests`.  A pattern that lists no test is a
filter that stopped testing anything, usually because the test it named
was renamed or deleted.  Prints each such pattern and exits 1; exits 2 if a
named binary is missing.
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")
# `./<build dir>/tests/<binary>` followed by its filter, possibly on the
# next line of a folded YAML scalar.
CALL = re.compile(r"\./[\w.-]+/tests/(\w+)\s+--gtest_filter='([^']*)'")


def listed_tests(binary, pattern):
    """Number of tests `pattern` selects in `binary`."""
    out = subprocess.run([binary, "--gtest_list_tests",
                          "--gtest_filter=" + pattern],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    # Suites are flush left; their tests are indented.
    return sum(1 for line in out.splitlines() if line.startswith("  "))


def main():
    bin_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "build", "tests")
    with open(WORKFLOW) as f:
        calls = CALL.findall(f.read())
    empty = []
    checked = 0
    for name, filter_text in calls:
        binary = os.path.join(bin_dir, name)
        if not os.path.isfile(binary):
            print(f"missing test binary: {binary}", file=sys.stderr)
            return 2
        # Everything after the first '-' is gtest's negative section.
        for pattern in filter_text.split("-", 1)[0].split(":"):
            checked += 1
            if listed_tests(binary, pattern) == 0:
                empty.append(f"{name}: '{pattern}'")
    for line in empty:
        print(f"filter pattern selects no test: {line}")
    print(f"{checked} filter patterns in {len(calls)} calls; "
          f"{len(empty)} select nothing")
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main())
