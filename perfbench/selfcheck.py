#!/usr/bin/env python3
"""Reduced-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

It checks, in about a minute:
  1. BENCHMARK.json against the benchmark's schema;
  2. every workload at its minimum size (--size min), traced and
     untraced: exit 0, a result line that matches the schema, and
     exactly the metrics BENCHMARK.json names for that mode;
  3. every workload against a deliberately wrong copy of its pinned
     expectations: the failed ops show in "failed" (fail_frac > 0), the
     result says correct: false, and the command exits nonzero;
  4. a directory holding only BENCHMARK.json and perfbench/: the command
     exits nonzero without printing a result.
Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "_out", "selfcheck")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

problems = []


def check(cond, msg):
    if not cond:
        problems.append(msg)
        print(f"  FAIL {msg}")
    return cond


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json: top-level keys")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(1 <= len(spec["paths"]) <= 16 and all(PATH.match(p) and ".." not in p.split("/")
                                                 for p in spec["paths"]), "paths")
    check(1 <= len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"]), "command")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
              and "\n" not in w["why"], f"workload {w.get('name')}")
        names.append(w["name"])
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end_to_end {m.get('name')}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per_layer {m.get('name')}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"),
              f"metric {m['name']}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s: unit s, lower, the largest bound")
    check(len(json.dumps(spec)) <= 65536, "BENCHMARK.json size")


def run(workload, trace, *extra, cwd=ROOT, seed=1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    last = proc.stdout.strip().split("\n")[-1] if proc.stdout.strip() else ""
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check_result(label, result, want):
    if not check(isinstance(result, dict), f"{label}: a JSON result line"):
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    check(isinstance(result["correct"], bool), f"{label}: correct is a boolean")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    check(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"],
          f"{label}: failed")
    metrics = result["metrics"]
    check(set(metrics) == set(want), f"{label}: metric names")
    for name, m in metrics.items():
        ok = (isinstance(m, dict) and set(m) == {"value", "unit"}
              and isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              and m["unit"] == want.get(name))
        check(ok, f"{label}: metric {name}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    print("BENCHMARK.json schema")
    check_spec(spec)
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in workloads:
        for trace, want in ((0, e2e), (1, layers)):
            print(f"{w} --size min --trace {trace}")
            code, result = run(w, trace, "--size", "min")
            check(code == 0, f"{w} trace {trace}: exit {code}")
            check_result(f"{w} trace {trace}", result, want)
            if result:
                check(result.get("correct") is True and result.get("failed") == 0,
                      f"{w} trace {trace}: every output check passed")

    # a wrong pinned expectation must be a failed op and a failed command
    wrong = os.path.join(OUT, "wrong-expected")
    shutil.rmtree(wrong, ignore_errors=True)
    os.makedirs(wrong)
    for w in workloads:
        with open(os.path.join(HERE, "expected", w + ".json")) as f:
            pinned = json.load(f)
        with open(os.path.join(wrong, w + ".json"), "w") as f:
            json.dump({k: {"deliberately": "wrong"} for k in pinned}, f)
        print(f"{w} against wrong expectations")
        code, result = run(w, 0, "--size", "min", "--expected-dir", wrong)
        check(code != 0, f"{w}: exit nonzero on a wrong expectation (got {code})")
        check_result(f"{w} wrong", result, e2e)
        if result:
            check(result["correct"] is False and result["failed"] > 0,
                  f"{w}: failed ops counted (fail_frac {result['failed']}/{result['attempted']})")

    # only BENCHMARK.json and the benchmark's own files: no result, nonzero
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    print("bare directory")
    code, result = run(workloads[0], 0, cwd=bare)
    check(code != 0 and result is None, f"bare directory: exit {code}, result {result}")
    shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck:", "OK" if not problems else f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
