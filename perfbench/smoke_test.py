#!/usr/bin/env python3
"""The benchmark's own tests, at the tiny input size (about a minute).

    python3 perfbench/smoke_test.py

1. Every workload, untraced and traced, ends with a result line that has
   exactly the contract's keys, reports correct with no failures, and emits
   every metric BENCHMARK.json names for that mode with its unit and a finite
   value.
2. A corrupted reference trips the correctness gate: nonzero exit and
   "correct": false.
Exits 1 on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 3


def fail(message):
    print("smoke_test: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def run(workload, trace, reference=None):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    if reference:
        command += ["--reference", reference]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s trace=%d printed nothing; stderr:\n%s" % (workload, trace, done.stderr))
    return done.returncode, json.loads(lines[-1]), done.stderr


def check_metrics(workload, trace, result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s trace=%d: result keys %s" % (workload, trace, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: not correct: %s" % (workload, trace, result))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("%s trace=%d: metric names differ: missing %s, extra %s" % (
            workload, trace, sorted(set(expected) - set(metrics)),
            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        value = metrics[name]["value"]
        if metrics[name]["unit"] != unit:
            fail("%s: %s has unit %r, expected %r" % (workload, name, metrics[name]["unit"], unit))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number: %r" % (workload, name, value))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    by_mode = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
               1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            if code != 0:
                fail("%s trace=%d exited %d; stderr:\n%s" % (workload, trace, code, stderr))
            check_metrics(workload, trace, result, by_mode[trace])
            print("smoke_test: ok   %-9s trace=%d  %d metrics, %d operations" % (
                workload, trace, len(result["metrics"]), result["attempted"]))

    # Corrupt one analyze reference line of the seed set in use.
    with open(os.path.join(HERE, "reference", "tiny.ref")) as handle:
        lines = handle.read().splitlines()
    prefix = "analyze %d " % SEED
    target = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[target] = lines[target].replace("dyn=", "dyn=1", 1)
    corrupt_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(corrupt_dir, exist_ok=True)
    corrupt = os.path.join(corrupt_dir, "corrupt-tiny.ref")
    with open(corrupt, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    try:
        code, result, _ = run("analyze", 0, reference=corrupt)
    finally:
        os.remove(corrupt)
    if code == 0 or result.get("correct") is not False or result.get("failed", 0) < 1:
        fail("a corrupted reference did not trip the gate (exit %d, %s)" % (code, result))
    print("smoke_test: ok   corrupted reference -> exit %d, %d of %d failed" % (
        code, result["failed"], result["attempted"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
