#!/usr/bin/env python3
"""Run one workload of the Vega pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It builds the benchmark
executable (perfbench/vega_bench.ml, against the repo's libraries) with
dune, runs the workload in a child process, and relays its output.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; with --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.

Exit codes: 0 every output check passed; 1 some check failed (the result
line says which counts); 2 bad usage or not a source checkout; 3 the
build failed; 4 the run crashed, timed out or printed no valid result.
Extra options (--size min, --expected-dir DIR, --pin, --verbose) are
passed through to the executable; perfbench/selfcheck.py uses them.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "vega_bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_child(argv, timeout, **kw):
    """Run argv in its own process group; kill the whole group on timeout.
    Returns (returncode, stdout) and always waits for the child."""
    proc = subprocess.Popen(argv, cwd=ROOT, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def expected_metrics(trace):
    """Metric names and units the result must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args, extra = ap.parse_known_args()

    for needed in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, f"{ROOT} is not a source checkout (no {needed})")
    dune = shutil.which("dune")
    if dune is None:
        fail(2, "dune not found on PATH")

    code, _ = run_child(
        [dune, "build", "--root", ".", "./perfbench/vega_bench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if code != 0 or not os.path.exists(EXE):
        fail(3, "build failed" if code is not None else "build timed out")

    argv = [EXE, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace] + extra
    code, out = run_child(argv, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    if code is None:
        fail(4, f"{args.workload} timed out after {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if code not in (0, 1) or not isinstance(result, dict):
        sys.stdout.write(out)
        fail(4, f"{args.workload} exited with {code} and no result line")
    want = expected_metrics(args.trace == "1")
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if want is not None and got != want:
        missing = sorted(set(want) - set(got))
        extra_names = sorted(set(got) - set(want))
        print("\n".join(lines[:-1]))
        fail(4, f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra_names}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
