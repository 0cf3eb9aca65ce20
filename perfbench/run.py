#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is configured and built with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs only re-check that it is up
to date. Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no program sources (src/) in this checkout\n")
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "qpp_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return 2
    scratch = os.path.join(build, "scratch")
    os.makedirs(scratch, exist_ok=True)
    sys.stdout.flush()
    return subprocess.run([os.path.join(build, "qpp_perfbench")] +
                          sys.argv[1:] + ["--scratch", scratch]).returncode


if __name__ == "__main__":
    sys.exit(main())
