#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs bench_e2e/run.py once per seed for each workload and prints, per
metric, the median and the interquartile distance as a share of the median
(statistics.quantiles(values, n=4)) next to a third of the metric's bound
in BENCHMARK.json — the steadiness target. Run from the checkout root:

    python3 bench_e2e/spread.py --seeds 1-10 [--workload NAME ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload")
    ap.add_argument("--out", help="also write the raw results as JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    raw = {}
    worst = 0.0
    for w in workloads:
        runs = []
        for s in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(s),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {s}: run failed")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {s}: incorrect result")
            runs.append(result)
        raw[w] = runs
        print(f"{w} ({len(runs)} runs)")
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:14s} median {med:14.6g}  spread {spread:7.4f}  "
                  f"target < {bound / 3:.4f}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
