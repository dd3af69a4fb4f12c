#!/usr/bin/env python3
"""Runs one workload of the SNICIT benchmark.

Builds the library and the harness from source (Release, into
.bench_build/perfbench), runs `perfbench`, checks that its result line
reports exactly the metrics BENCHMARK.json names, and passes the output
through. Run from the repository root:

    python3 perfbench/run.py --workload sdgc --seed 1 --seconds 10 --trace 0

Exits 0 when every output check passed, and non-zero when a check failed,
the build failed, or the result line is malformed; in the last two cases
no result line is printed.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the perfbench target up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def valid_result(line, trace):
    """The result line has exactly the contract's keys and metrics."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        log("last line is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result keys are {sorted(result)}")
        return False
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        log(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"extra {extra}, wrong unit {wrong}")
        return False
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            log(f"metric {name} has no finite value")
            return False
    return result["attempted"] >= 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sdgc", "medium"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 2
    spans = os.path.join(".bench_out",
                         f"spans-{args.workload}-seed{args.seed}.json")
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--spans-out", spans]
    try:
        # run() kills the child on timeout and waits for it to exit.
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 4
    output = proc.stdout.rstrip("\n")
    head, _, last = output.rpartition("\n")
    if proc.returncode in (0, 1) and valid_result(last, args.trace):
        print(output, flush=True)
        return proc.returncode
    # No valid result: pass the log on, without any malformed result line.
    print(head if last.startswith("{") else output, flush=True)
    log(f"perfbench exited with {proc.returncode} and no valid result")
    return proc.returncode or 3


if __name__ == "__main__":
    sys.exit(main())
