#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds the benchmark binary from the sources of this checkout, generates
the workload's input from --seed, replays it through the serving path and
prints one JSON object as the last line of standard output:

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the traced run.  Run it from the root of the checkout; everything it builds
or writes goes under .bench_build/.  Exits non-zero without a result when
the build, the replay or the correctness gate fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("gateway", "elephants", "churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd, log, timeout):
    """Runs cmd, appending its output to log; fails the benchmark on error."""
    with open(log, "a") as out:
        try:
            result = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(map(str, cmd))} (see {log})")
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(map(str, cmd))} "
             f"(see {log})")


def build(root, build_dir, log):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no program sources next to perfbench/ (src/CMakeLists.txt)")
    if not (build_dir / "CMakeCache.txt").is_file():
        call(["cmake", "-S", root / "perfbench", "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"], log, 600)
    call(["cmake", "--build", build_dir, "--target", "serving_bench",
          "-j", "4"], log, 1500)
    return build_dir / "serving_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smoke-test knobs: shrink the input, or corrupt one label of the
    # replay's classification sequence so the correctness gate must trip.
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--corrupt-label", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    bench_build = root / ".bench_build"
    work = bench_build / "work"
    work.mkdir(parents=True, exist_ok=True)
    log = work / "build.log"
    binary = build(root, bench_build / "cmake", log)

    model = work / "model.bundle"
    call([binary, "train", "--out", model], log, 300)

    stem = work / f"{args.workload}-{args.seed}"
    call([binary, "prepare", "--workload", args.workload, "--seed",
          str(args.seed), "--scale", str(args.scale), "--out", stem], log, 300)

    cmd = [binary, "run", "--workload", args.workload, "--input", stem,
           "--model", model, "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", str(args.scale),
           "--corrupt-label", str(args.corrupt_label)]
    if args.trace:  # one dump per workload, replaced by the next traced run
        cmd += ["--spans-out", work / f"{args.workload}.spans.csv"]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("replay timed out")
    finally:
        for suffix in (".pcap", ".truth"):
            Path(f"{stem}{suffix}").unlink(missing_ok=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        fail(f"replay failed with exit code {result.returncode}")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("replay printed no result line")
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
