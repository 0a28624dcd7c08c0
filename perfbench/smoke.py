#!/usr/bin/env python3
"""Smoke test of the serving benchmark: a tiny run of every workload.

For each workload in BENCHMARK.json it runs perfbench/run.py at a small
input scale, untraced and traced, and checks that the result line names
every end-to-end (untraced) or per-layer (traced) metric with its unit,
that the correctness gate passed and nothing was lost.  It then corrupts
one label of the replay's classification sequence and checks that the
gate trips: a non-zero exit and no result line.  Run from the checkout
root:

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path


def run(workload, trace, corrupt=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.05", "--corrupt-label", str(corrupt)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=900)


def check_report(result, expected, errors, label):
    if result.returncode != 0:
        errors.append(f"{label}: exit {result.returncode}: "
                      f"{result.stderr.strip()[-400:]}")
        return
    report = json.loads(result.stdout.strip().splitlines()[-1])
    if report["correct"] is not True or report["attempted"] < 1:
        errors.append(f"{label}: not correct or nothing attempted")
    if report["failed"] != 0:
        errors.append(f"{label}: {report['failed']} packets lost")
    metrics = report["metrics"]
    for name, unit in expected.items():
        if name not in metrics:
            errors.append(f"{label}: missing metric {name}")
        elif metrics[name]["unit"] != unit:
            errors.append(f"{label}: {name} has unit {metrics[name]['unit']}, "
                          f"expected {unit}")
    extra = set(metrics) - set(expected)
    if extra:
        errors.append(f"{label}: unexpected metrics {sorted(extra)}")
    if "success_ratio" in metrics and metrics["success_ratio"]["value"] != 1:
        errors.append(f"{label}: success_ratio is not 1")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_report(run(workload, 0), end_to_end, errors, f"{workload} untraced")
        check_report(run(workload, 1), per_layer, errors, f"{workload} traced")
        corrupted = run(workload, 0, corrupt=1)
        if corrupted.returncode == 0 or '"metrics"' in corrupted.stdout:
            errors.append(f"{workload}: corrupted label passed the gate")
        elif "correctness gate FAILED" not in corrupted.stderr:
            errors.append(f"{workload}: corrupted run failed for another "
                          f"reason: {corrupted.stderr.strip()[-400:]}")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
