#!/usr/bin/env python3
"""Measure the benchmark over several seeds and record a baseline entry.

    python3 perfbench/baseline.py [--runs 10] [--workloads a,b] [--commit ID] [--write]

For each workload it runs perfbench/run.py once per seed (seeds 1..runs,
tracing off), and prints per end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread: the inter-quartile
distance as a share of the median, which must stay under the metric's
bound in BENCHMARK.json.  With --write it appends the entry, labelled
with --commit, to the "baselines" list of perfbench/baseline.json: the
committed performance trajectory of this benchmark.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    result = json.loads(out.stdout.strip().split("\n")[-1])
    if out.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}, {result}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--commit", default="unknown")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    entry = {"commit": args.commit, "runs": args.runs,
             "seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for w in names:
        values = {m: [] for m in bounds}
        t0 = time.time()
        for seed in range(1, args.runs + 1):
            res = run_once(w, seed, spec["run_seconds"])
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        print(f"{w}: {args.runs} runs in {time.time() - t0:.0f} s")
        entry["workloads"][w] = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if m != "setup_s":
                worst = max(worst, spread / bounds[m])
            print(f"  {m:12s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:6.3f} (bound {bounds[m]})")
            entry["workloads"][w][m] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread}
    print(f"largest spread/bound (setup_s excluded): {worst:.3f}")
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        with open(path) as f:
            doc = json.load(f)
        doc["baselines"].append(entry)
        with open(path, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
