#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload synth|bist|service --seed N \
        --seconds S --trace 0|1

Builds perfbench/ -- and through it the stc library, with the flags of the
repository's own CMakeLists.txt -- into .bench_build/ at the repository
root, then runs one workload of perfbench/src (see perfbench/WORKLOADS.md).
The program checks its own outputs and prints a report and a
"RESULT {...}" record holding every metric, the host metadata and the seed.
This script echoes both, appends the record to
.bench_build/results/runs.jsonl (perfbench/compare.py reads either), and
prints as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric of BENCHMARK.json with --trace 0 and every
per-layer metric with --trace 1. Exits non-zero, without that line, when
the build, the run or the metric set fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", cmake_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", cmake_dir, "--target", "stcbench", "-j", jobs]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "stcbench")


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["synth", "bist", "service"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"stcbench exited with status {proc.returncode}")

    records = [line[len("RESULT "):] for line in proc.stdout.splitlines()
               if line.startswith("RESULT ")]
    if len(records) != 1:
        fail("expected exactly one RESULT record")
    result = json.loads(records[0])
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "runs.jsonl"), "a") as f:
        f.write(records[0] + "\n")

    measured = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            fail(f"{args.workload} did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} differs from BENCHMARK.json's {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
