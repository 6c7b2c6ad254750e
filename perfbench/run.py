#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload q6_adaptive --seed 1 --seconds 20 --trace 0

The first call configures and builds `.bench_build/` (Release; the
zstream library, `zstream_server` and the `perfbench` driver); later
calls only let the build tool confirm it is up to date. The driver then
replaces this process, so the run's thread count and its set-up time
are the driver's own. Its last line of standard output is the JSON
result.

    python3 perfbench/run.py --self-test

builds and runs the checks' self-test instead.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no zstream sources next to perfbench/; "
                 "run from a full checkout")
    jobs = str(os.cpu_count() or 1)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, check=True, **quiet)


def main(argv):
    if argv == ["--self-test"]:
        build(["perfbench_checks_test"])
        binary = os.path.join(BUILD, "bin", "perfbench_checks_test")
        os.execv(binary, [binary])
    build(["perfbench"])
    binary = os.path.join(BUILD, "bin", "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed: %s" % e)
