#!/usr/bin/env python3
"""Builds the live-pool benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload steady_regular --seed 1 --seconds 15 --trace 0

The build goes to $CARGO_TARGET_DIR if set, else .bench_build/ at the
repository root; build output goes to stderr so that the last line on
stdout is the benchmark's JSON result. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "mm_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(build_dir, "mm_perfbench")


def main():
    binary = build()
    if binary is None or not os.path.exists(binary):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
