#!/usr/bin/env python3
"""Build and run the qvg repo benchmark.

Usage (from the repo root):
    python3 perfbench/run.py --workload table1_playback --seed 1 \
        --seconds 30 --trace 0

Configures and builds perfbench/CMakeLists.txt (the qvg library from src/
plus the benchmark program) into .bench_build/perfbench with CMake + Ninja,
then replaces this process with the benchmark binary. Build output goes to
stderr, so the last line on stdout is the binary's JSON result. Raw per-job
samples are written under .bench_build/raw/. See perfbench/README.md.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RAW = os.path.join(ROOT, ".bench_build", "raw")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service",
                                       "extraction_engine.hpp")):
        fail("qvg sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: " + str(error))
    os.makedirs(RAW, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, "--raw-dir", RAW] + sys.argv[1:])


if __name__ == "__main__":
    main()
