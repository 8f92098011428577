#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench/README.md).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload {serve-hot|batch-exec|compile-cold} \
      --seed N --seconds S --trace {0|1} [--corrupt N]

Builds perfbench/ (which compiles the library sources under src/) into
.bench_build/ with CMake, then runs the irbench program.  It prints
one line per metric and, last, a one-line JSON result; with --trace 1 it
also writes a Chrome trace_event file under .bench_build/traces/.  The exit
status is irbench's: non-zero on any wrong answer, and non-zero without a
result when the build fails (for instance when src/ is absent).
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("serve-hot", "batch-exec", "compile-cold")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the irbench target; exit 1 on failure."""
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    configured = BUILD / "configured"
    steps = []
    if not configured.exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "irbench",
                  "-j", str(len(os.sched_getaffinity(0)))])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write(f"run.py: build failed; full log in {log}\n")
                sys.exit(1)
            if step[1] == "-S":
                configured.touch()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--corrupt", type=int)
    args = parser.parse_args()

    build()
    command = [str(BUILD / "irbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-file", str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt is not None:
        command += ["--corrupt", str(args.corrupt)]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: irbench did not finish within {RUN_TIMEOUT_S} s\n")
        sys.exit(1)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
