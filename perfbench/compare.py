#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE NEW [--same-code]

BASE and NEW are each a file or a directory of files holding the runs'
"RESULT {...}" records -- saved stdout of perfbench/run.py, or
.bench_build/results/runs.jsonl, which run.py appends to. Untraced records
give the end-to-end rows; every record feeds the determinism check.

For each workload and end-to-end metric the tool prints each side's
median and quartiles and a verdict:

  better      NEW wins at least 9 of 10 pairs (ties count for neither) and
              the medians differ by more than BASE's quartile distance; or,
              when the spread exceeds the bound, every NEW run beats every
              BASE run;
  worse       NEW's median is worse than BASE's by more than the bound
              (with the spread within the bound, or every NEW run worse
              than every BASE run);
  unresolved  the run-to-run spread of either side, as a share of its
              median, is wider than the bound;
  unchanged   otherwise.

A run fails when any of its checks failed. When NEW has a larger share of
failed runs than BASE on a workload, every row of that workload reads
worse, whatever its timings say.

Runs pair up by seed when both sides have the same seeds, else by order.
The bounds are BENCHMARK.json's; workload-specific metrics that
BENCHMARK.json does not list use the bounds in EXTRA_METRICS below.
Finally, runs with the same workload and seed must agree exactly on the
deterministic work counters: within each side, and across the sides too
with --same-code (two sets of runs of one commit).
Exit status: 1 when any row reads worse or a counter differs, else 0.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (better, bound) for the end-to-end metrics one workload reports
# beyond BENCHMARK.json's list (which holds only what every workload has).
EXTRA_METRICS = {
    "peak_rss_mb": ("lower", 0.25),
    "faults_per_s": ("higher", 0.25),
    "functional_faults_per_s": ("higher", 0.25),
    "instances_per_s": ("higher", 0.25),
    "jobs_per_s": ("higher", 0.25),
    "job_latency_p50_s": ("lower", 0.25),
    "job_latency_p90_s": ("lower", 0.25),
    "error_rate": ("lower", 0.0),
}

# Work counters that repeat exactly for a given workload and seed.
DETERMINISTIC = {
    "metrics": ["literals", "area_ge", "flipflops"],
    "layers": ["ostr.nodes", "campaign.session_runs", "campaign.ops_evaluated",
               "fleet.session_runs"],
}


def load_records(path):
    files = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full):
                files.append(full)
    else:
        files.append(path)
    records = []
    for name in files:
        with open(name, errors="replace") as f:
            for line in f:
                line = line.strip()
                if line.startswith("RESULT "):
                    line = line[len("RESULT "):]
                if not line.startswith("{"):
                    continue
                try:
                    rec = json.loads(line)
                except ValueError:
                    continue
                if "workload" in rec and "metrics" in rec and "layers" in rec:
                    records.append(rec)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, new):
    """(base value, new value) pairs: by seed when the seed sets match."""
    bs = {r["seed"]: r for r in base}
    ns = {r["seed"]: r for r in new}
    if len(bs) == len(base) and len(ns) == len(new) and set(bs) == set(ns):
        return [(bs[s], ns[s]) for s in sorted(bs)]
    return list(zip(base, new))


def verdict(bvals, nvals, paired, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(bvals)
    nq1, nmed, nq3 = quartiles(nvals)
    scale = abs(bmed) if bmed else 1.0
    spread = max((bq3 - bq1) / scale, (nq3 - nq1) / (abs(nmed) if nmed else 1.0))
    gain = sign * (nmed - bmed)  # > 0: NEW is better
    all_better = min(sign * v for v in nvals) > max(sign * v for v in bvals)
    all_worse = max(sign * v for v in nvals) < min(sign * v for v in bvals)
    wins = sum(1 for b, n in paired if sign * (n - b) > 0)
    if spread > bound:
        if all_better:
            return "better", spread
        if all_worse and -gain > bound * scale:
            return "worse", spread
        return "unresolved", spread
    if paired and wins >= 0.9 * len(paired) and gain > (bq3 - bq1):
        return "better", spread
    if -gain > bound * scale:
        return "worse", spread
    return "unchanged", spread


def main():
    ap = argparse.ArgumentParser(description="Compare two sets of stcbench runs.")
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--same-code", action="store_true",
                    help="BASE and NEW ran the same code: check counters across them too")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base_all, new_all = load_records(args.base), load_records(args.new)
    if not base_all or not new_all:
        sys.exit("compare.py: no RESULT records in " + (args.base if not base_all else args.new))

    bad = False
    print(f"{'workload':<8} {'metric':<24} {'n':>5} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'delta':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        base = [r for r in base_all if r["workload"] == workload and not r["traced"]]
        new = [r for r in new_all if r["workload"] == workload and not r["traced"]]
        if not base or not new:
            print(f"{workload:<8} (no untraced runs on {'both sides' if not base and not new else 'one side'})")
            continue
        base_failed = sum(1 for r in base if r["failed"] or not r["correct"])
        new_failed = sum(1 for r in new if r["failed"] or not r["correct"])
        more_failures = new_failed * len(base) > base_failed * len(new)
        print(f"{workload:<8} failed runs: base {base_failed} of {len(base)}, "
              f"new {new_failed} of {len(new)}" +
              ("  -> NEW fails more: every row reads worse" if more_failures else ""))
        names = [n for n in declared] + sorted(
            n for n in EXTRA_METRICS if n in base[0]["metrics"] and n not in declared)
        for name in names:
            better, bound = declared.get(name) or EXTRA_METRICS[name]
            paired = [(b["metrics"][name]["value"], n["metrics"][name]["value"])
                      for b, n in pairs(base, new)
                      if name in b["metrics"] and name in n["metrics"]]
            bvals = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            nvals = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            if not bvals or not nvals:
                continue
            v, spread = verdict(bvals, nvals, paired, better, bound)
            if more_failures:
                v = "worse"
            bad = bad or v == "worse"
            bq1, bmed, bq3 = quartiles(bvals)
            nq1, nmed, nq3 = quartiles(nvals)
            delta = (nmed - bmed) / abs(bmed) if bmed else 0.0
            print(f"{workload:<8} {name:<24} {len(bvals):>2}/{len(nvals):<2} "
                  f"{bmed:>12.5g} [{bq1:.5g}, {bq3:.5g}]".ljust(63) +
                  f"{nmed:>12.5g} [{nq1:.5g}, {nq3:.5g}]".ljust(35) +
                  f"{delta:>+8.2%} {spread:>7.2%} {bound:>6.2f}  {v}")

    # Deterministic counters: identical across runs with the same workload
    # and seed (of one side, or of both with --same-code).
    groups = {}
    for side, recs in (("base", base_all), ("new", new_all)):
        for r in recs:
            key = ("both" if args.same_code else side, r["workload"], r["seed"])
            groups.setdefault(key, []).append(r)
    mismatches = 0
    for (side, workload, seed), recs in sorted(groups.items()):
        for section, names in DETERMINISTIC.items():
            for name in names:
                values = sorted({r[section][name]["value"] for r in recs if name in r[section]})
                if len(values) > 1:
                    mismatches += 1
                    print(f"counter {name} differs between {side} runs of {workload} "
                          f"seed {seed}: " + ", ".join(f"{v:g}" for v in values))
    checked = sum(1 for recs in groups.values() if len(recs) > 1)
    print(f"deterministic counters: {checked} (workload, seed) groups with repeated runs, "
          f"{mismatches} mismatches")
    sys.exit(1 if bad or mismatches else 0)


if __name__ == "__main__":
    main()
