#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
  * each run exits 0 with correct=true and no failed operation;
  * each untraced run prints exactly the end-to-end metrics of
    BENCHMARK.json and each traced run exactly its per-layer metrics, each
    with the unit BENCHMARK.json gives it, as a number >= 0;
  * the traced run's outputs are byte-identical to the untraced run's
    (same output digest).

Usage (from the repository root): python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("analyze-batch", "serve-live", "record-apps")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s trace=%d exited %d:\n%s%s" % (
            workload, trace, p.returncode, p.stdout, p.stderr[-2000:]))
    facts = json.loads(lines[-2][len("facts "):])
    return facts, json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    errors = []
    for workload in WORKLOADS:
        digests = []
        for trace, names in ((0, e2e), (1, layer)):
            try:
                facts, result = run(workload, trace)
            except AssertionError as e:
                errors.append(str(e))
                continue
            tag = "%s trace=%d" % (workload, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(tag + ": result keys " + str(sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                errors.append(tag + ": correctness checks failed")
            if result["attempted"] < 1:
                errors.append(tag + ": nothing attempted")
            got = result["metrics"]
            if sorted(got) != sorted(names):
                errors.append("%s: metrics %s, expected %s" % (
                    tag, sorted(got), sorted(names)))
            for name, m in got.items():
                if units.get(name) != m["unit"]:
                    errors.append("%s: %s unit %r, BENCHMARK.json %r" % (
                        tag, name, m["unit"], units.get(name)))
                # Tiny inputs can leave a stage's resident growth at 0.
                if not isinstance(m["value"], (int, float)) or m["value"] < 0:
                    errors.append("%s: %s is not a number >= 0: %r" % (
                        tag, name, m["value"]))
            digests.append(facts.get("output.digest"))
        if len(digests) == 2 and digests[0] != digests[1]:
            errors.append("%s: traced outputs differ from untraced (%s vs %s)"
                          % (workload, digests[1], digests[0]))
        print("%-14s %s" % (workload, "ok" if not errors else "checked"))
    for e in errors:
        print("FAIL " + e)
    print("smoke test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
