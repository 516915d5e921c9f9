#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs it.

    python3 perfbench/run.py --workload http-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --short

Run from the repository root. The first run configures and builds
perfbench/ (with the libraries under src/) in Release into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. A traced run (--trace 1) also writes its spans
to .bench_build/perfbench/traces/.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "prost_perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no PRoST sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def trace_out(argv):
    """Where a traced run writes its spans, or None."""
    def value(flag, default):
        return argv[argv.index(flag) + 1] if flag in argv[:-1] else default
    if value("--trace", "0") == "0":
        return None
    directory = os.path.join(BUILD, "traces")
    os.makedirs(directory, exist_ok=True)
    return os.path.join(directory, "%s-seed%s.jsonl" % (
        value("--workload", "none"), value("--seed", "1")))


def main():
    try:
        build()
    except subprocess.CalledProcessError as error:
        sys.exit("perfbench: build failed: %s" % error)
    argv = sys.argv[1:]
    spans = trace_out(argv)
    if spans is not None:
        argv += ["--trace-out", spans]
    sys.exit(subprocess.run([BINARY] + argv, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
