#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The first call configures and builds `perfbench/` (the ntier library
from `src/` plus `perfbench.cc`) into `.bench_build/perfbench`; later calls
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is always the program's JSON result. Traced runs (`--trace 1`)
also write `.bench_build/reports/<workload>.layers.json`.

Exits non-zero without a result when the build fails, e.g. when the
library sources are missing.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REPORTS = os.path.join(ROOT, ".bench_build", "reports")
PROGRAM = os.path.join(BUILD, "ntier_perfbench")


def build():
    """Configures (once) and builds the program; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as err:
            print(f"error: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"error: {' '.join(cmd)} failed with code {done.returncode}", file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    # Replace this process with the program, so no child outlives a
    # signal sent to the benchmark.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(PROGRAM, [PROGRAM, "--report-dir", REPORTS, *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
