#!/usr/bin/env python3
"""Fails when libcdpipe.a defines a function that no shipped binary links.

    python3 tools/unlinked_symbols.py

Builds the repository's benches and examples, and deploybench's
`deploy_bench` from its own CMake package, at -O0 -ffunction-sections
-fdata-sections and links them with --gc-sections, under .unlinked_build/.
-O0 keeps every call a call, so inlining cannot hide a use; --gc-sections
drops every function no binary reaches, and -fdata-sections keeps one
function's switch table from holding its neighbours' code in the link.
The shipped binaries are SHIPPED below.

A symbol is unlinked when it is a strong (`T`) `cdpipe::` function of
libcdpipe.a that none of the shipped binaries defines.  Weak symbols
(header-inline functions, implicit members, template instances) are not
counted.  A virtual stays linked through its vtable whenever its class is
constructed, so the scan cannot see an override nobody calls.

Every unlinked symbol must start with a prefix listed in
tools/unlinked_allowlist.txt (one `<prefix>  # reason` per line), and every
prefix must cover at least one unlinked symbol, so an entry goes when the
code it covers gains a caller or is deleted.  Exits 1 on an uncovered
symbol or a stale entry, 2 if a build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".unlinked_build")
ALLOWLIST = os.path.join(ROOT, "tools", "unlinked_allowlist.txt")

BENCHES = ["bench_paper", "bench_sgd_throughput", "bench_component_throughput",
           "bench_serving_latency", "bench_chunk_store",
           "bench_optimizer_convergence"]
EXAMPLES = ["quickstart", "url_malicious_detection", "taxi_duration",
            "drift_adaptation", "checkpoint_resume", "live_obs"]
MAIN_BUILD = os.path.join(BUILD_ROOT, "main")
DEPLOY_BUILD = os.path.join(BUILD_ROOT, "deploybench")
SHIPPED = ([os.path.join(MAIN_BUILD, "bench", b) for b in BENCHES] +
           [os.path.join(MAIN_BUILD, "examples", e) for e in EXAMPLES] +
           [os.path.join(DEPLOY_BUILD, "deploy_bench")])
LIBRARY = os.path.join(MAIN_BUILD, "src", "libcdpipe.a")

CONFIGURE_FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def log(message):
    print(f"unlinked_symbols: {message}", file=sys.stderr, flush=True)


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", ROOT, "-B", MAIN_BUILD, "-DCDPIPE_BUILD_TESTS=OFF",
         "-DCDPIPE_BUILD_BENCHMARKS=ON", "-DCDPIPE_BUILD_EXAMPLES=ON"]
        + CONFIGURE_FLAGS,
        ["cmake", "--build", MAIN_BUILD, "-j", jobs],
        ["cmake", "-S", os.path.join(ROOT, "deploybench"), "-B", DEPLOY_BUILD]
        + CONFIGURE_FLAGS,
        ["cmake", "--build", DEPLOY_BUILD, "-j", jobs, "--target",
         "deploy_bench"],
    ]
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def defined_symbols(path, strong_text_only):
    """Demangled names `nm` lists as defined in `path`."""
    out = subprocess.run(["nm", "-C", "--defined-only", path], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    names = set()
    for line in out.splitlines():
        # "<address> <type> <name>"; archive member headers have no type.
        parts = line.split(" ", 2)
        if len(parts) != 3 or len(parts[1]) != 1:
            continue
        if strong_text_only and parts[1] != "T":
            continue
        names.add(parts[2])
    return names


def read_allowlist():
    entries = []
    with open(ALLOWLIST) as f:
        for number, line in enumerate(f, 1):
            prefix, _, reason = line.partition("#")
            prefix = prefix.strip()
            if not prefix:
                continue
            if not reason.strip():
                log(f"{ALLOWLIST}:{number}: entry '{prefix}' has no reason")
                sys.exit(1)
            entries.append(prefix)
    return entries


def main():
    if not build():
        return 2
    library = {s for s in defined_symbols(LIBRARY, True)
               if s.startswith("cdpipe::")}
    linked = set()
    for binary in SHIPPED:
        linked |= defined_symbols(binary, False)
    unlinked = sorted(library - linked)
    entries = read_allowlist()

    uncovered = [s for s in unlinked
                 if not any(s.startswith(p) for p in entries)]
    stale = [p for p in entries if not any(s.startswith(p) for s in unlinked)]
    print(f"{len(library)} strong cdpipe:: functions in libcdpipe.a; "
          f"{len(unlinked)} linked by none of {len(SHIPPED)} shipped "
          f"binaries; {len(unlinked) - len(uncovered)} allowlisted under "
          f"{len(entries)} entries; {len(uncovered)} uncovered; "
          f"{len(stale)} stale entries")
    for symbol in uncovered:
        print(f"uncovered: {symbol}")
    for prefix in stale:
        print(f"stale entry: {prefix}")
    return 1 if uncovered or stale else 0


if __name__ == "__main__":
    sys.exit(main())
