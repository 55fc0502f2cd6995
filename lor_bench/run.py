#!/usr/bin/env python3
"""Builds lor_bench from this checkout and runs one workload.

Usage (from the repository root):

    python3 lor_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each call builds lor_bench (and the library it measures) in Release mode
under .bench_build/lor_bench; after the first, that only rebuilds what
changed. Build output goes to stderr. The benchmark's own
output passes through unchanged: `name value unit` lines, then, as the
last line of stdout, one JSON object with the end-to-end metrics, or
with --trace 1 the per-layer ones (and the Chrome trace is written to
.bench_build/lor_bench/trace-NAME.json). The exit code is the
benchmark's: 0 when the run passed its correctness gate, 1 when it did
not, 2 on bad arguments; 1 also when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lor_bench")


def build():
    """Configures (once) and builds lor_bench; returns the binary path."""
    steps = [["cmake", "--build", BUILD, "--target", "lor_bench", "-j", "4"]]
    # Once the build system is generated, the build step re-runs CMake
    # itself when a CMakeLists.txt changes.
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(step))
    return os.path.join(BUILD, "lor_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    command = [build(), "--workload=" + args.workload, "--seed=" + args.seed,
               "--seconds=" + args.seconds]
    if args.trace == "1":
        command.append("--trace=" + os.path.join(
            BUILD, "trace-%s.json" % os.path.basename(args.workload)))
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
