#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The release build goes to $CARGO_TARGET_DIR (default `.bench_build`).
Single-threaded workloads are pinned to one CPU, the highest-numbered
one this process may use, so every run of them uses the same CPU. The
benchmark's stdout is passed through; its last line is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

# Workloads whose client and server threads, or single compute thread,
# share one CPU. gen_2d_spill runs two ranks and is left unpinned.
PINNED = {"ground_truth_check", "serve_lookup", "serve_rows"}
WORKLOADS = PINNED | {"gen_2d_spill"}
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def stop_on_signal(signum, _frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps
    # the child before re-raising.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_signal)
    signal.signal(signal.SIGINT, stop_on_signal)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isdir(os.path.join(root, "crates")):
        sys.exit("perfbench: no crates/ beside perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--locked",
             "--manifest-path", os.path.join(here, "Cargo.toml")],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: build exceeded {BUILD_TIMEOUT_S} s")
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed ({build.returncode})")

    if args.workload in PINNED:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    binary = os.path.join(target, "release", "kron-perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
