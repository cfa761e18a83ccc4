#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload <sweep-grid|cell-capacity|live-fleet>
                            --seed N --seconds S --trace <0|1> [--threads T]

Run from the repository root.  The first call configures and builds the
benchmark (the library sources plus e2ebench/src) into .bench_build/ in
Release mode; later calls rebuild only what changed.  Build output goes to
.bench_build/e2ebench/build.log, so standard output carries only the
benchmark's report, whose last line is the JSON result.  With --trace 1
the recorded spans are written to .bench_build/e2ebench/spans-*.csv.
"""

import argparse
import fcntl
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("sweep-grid", "cell-capacity", "live-fleet")


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                  "-j", jobs])
    with open(BUILD / "build.lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log,
                                      stderr=subprocess.STDOUT)
            except OSError as error:
                fail(f"cannot run {step[0]}: {error}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                fail(f"build step failed: {' '.join(step)}")
    return BUILD / "e2ebench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.threads is not None:
        command += ["--threads", str(args.threads)]
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-{args.seed}.csv"
        command += ["--spans-out", str(spans)]
    # Set-ups run inside the budget; allow for the last pass overrunning it.
    timeout_s = args.seconds + 120
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout_s} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
