#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at tiny sizes, once end to end and once
traced, through perfbench/run.py, and checks that each run passes its
correctness checks and emits exactly the metric names and units that
BENCHMARK.json declares, each as a finite number.

Usage, from the root of a checkout:  python3 perfbench/smoke_test.py
"""

import json
import math
import os
import subprocess
import sys


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=900)
    if out.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd),
                                                      out.returncode))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def check(result, declared, label):
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True:
        errors.append("%s: correctness check failed" % label)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted = %r" % (label, result.get("attempted")))
    if not isinstance(result.get("failed"), int) or result["failed"] < 0:
        errors.append("%s: failed = %r" % (label, result.get("failed")))
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append("%s: missing %s, unexpected %s" % (
            label, sorted(set(want) - set(metrics)),
            sorted(set(metrics) - set(want))))
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s: %s unit %r, declared %r" % (
                label, name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (label, name, value))
    return errors


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    errors = []
    for workload in bench["workloads"]:
        name = workload["name"]
        errors += check(run(name, 0), bench["end_to_end"], name + " e2e")
        errors += check(run(name, 1), bench["per_layer"], name + " traced")
        print("smoke: %s done" % name)
    for e in errors:
        print("FAIL " + e)
    print("smoke: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
