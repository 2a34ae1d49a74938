#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

Run from the checkout root:

    python3 bench_e2e/run.py --workload fig2-sim-1024 --seed 1 --seconds 15 --trace 0

The build lives in .bench_build/ under the checkout root (configured on the
first run, incremental afterwards; build output goes to stderr). The last
line of standard output is the result object. Exits nonzero, without a
result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "bench_e2e")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)


def git_sha():
    # Only a checkout that is itself a git work tree has a sha; never look
    # above the checkout root for one.
    if not os.path.isdir(".git"):
        return "unknown"
    out = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--wrong-reference", action="store_true",
                    help="self-test: check every answer against a wrong "
                         "reference, so every op must fail")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.wrong_reference:
        cmd.append("--wrong-reference")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"run.py: bench_e2e exited {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print(run.stdout, end="" if run.stdout.endswith("\n") else "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
