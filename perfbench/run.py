#!/usr/bin/env python3
"""Builds and runs the ojv end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures perfbench/CMakeLists.txt (which compiles the library through the
repository's own CMakeLists.txt) into .bench_build/perfbench, builds it,
then runs the benchmark binary (a traced run also writes its spans to
.bench_build/perfbench/trace-<workload>-<seed>.json). Build output goes to
stderr, so the last line of stdout is the binary's JSON result. Exits
nonzero without a result when the build fails (as it does outside an ojv
source tree); the binary exits nonzero when an op fails or a view does not
match the recompute oracle. `--workload all` runs the three workloads in
turn, each ending with its own result line, and exits nonzero if any of
them did.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("oltp_immediate", "deferred_batch", "serve_fresh_read")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            command += ["--trace-out", os.path.join(
                BUILD, "trace-%s-%d.json" % (workload, args.seed))]
        sys.stdout.flush()
        rc = subprocess.run(command).returncode
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())
