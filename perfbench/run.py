#!/usr/bin/env python3
"""Builds the limpet benchmark from source and runs one workload.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload ionic|tissue|daemon --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --test      # the benchmark's own unit tests

The build lives in .bench_build/perfbench (configured on first use, then
incremental). Build output goes to stderr; the benchmark's report and its
final JSON line go to stdout. Exits non-zero without a result when the
program's sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no limpet sources next to the benchmark\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main(argv):
    if argv[:1] == ["--test"]:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run(
            [os.path.join(BUILD, "perfbench_tests"),
             os.path.join(ROOT, "BENCHMARK.json")], cwd=ROOT).returncode
    if not build("perfbench"):
        return 2
    sys.stdout.flush()
    # The binary is the last writer of stdout; its exit status is ours.
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv,
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
