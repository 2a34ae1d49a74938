#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the checkout root:

    python3 bench_e2e/selftest.py

Checks, with short runs:
  * every workload reports every end-to-end metric of BENCHMARK.json with
    its unit, and is correct with fail_ratio 0;
  * against a deliberately wrong reference (--wrong-reference) every
    workload reports correct = false and failed > 0, so a wrong answer
    raises fail_ratio instead of being skipped;
  * a traced run reports every per-layer metric of BENCHMARK.json with its
    unit, and its span coverage is at least 90%.
Exits nonzero on the first failed check.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "2"


def run(workload, trace=0, wrong=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", SECONDS, "--trace",
           str(trace)]
    if wrong:
        cmd.append("--wrong-reference")
    out = subprocess.run(cmd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload}: run.py exited {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        sys.exit(1)


def has_all(result, specs):
    got = result["metrics"]
    return set(got) == {m["name"] for m in specs} and all(
        got[m["name"]]["unit"] == m["unit"] for m in specs)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        r = run(w)
        expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
               f"{w}: correct, fail_ratio 0")
        expect(has_all(r, bench["end_to_end"]),
               f"{w}: every end-to-end metric, with units")
        r = run(w, wrong=True)
        expect(not r["correct"] and r["failed"] > 0,
               f"{w}: a wrong reference raises fail_ratio "
               f"({r['failed']}/{r['attempted']})")
    r = run("fig2-sim-1024", trace=1)
    expect(r["correct"], "traced run: correct")
    expect(has_all(r, bench["per_layer"]),
           "traced run: every per-layer metric, with units")
    expect(r["metrics"]["trace.coverage_pct"]["value"] >= 90,
           "traced run: spans cover >= 90% of op time")


if __name__ == "__main__":
    main()
