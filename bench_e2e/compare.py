#!/usr/bin/env python3
"""Compares two sets of bench_e2e result files.

    python3 bench_e2e/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by bench_e2e
(<workload>-seed<N>-trace0.json, e.g. .bench_out/ copied aside after a set
of runs). For every workload and end-to-end metric it prints the median and
quartile spread of each set and flags a new median that is worse than the
base median by more than the metric's bound in BENCHMARK.json.

Timings from different machines are not comparable, so it first checks the
machine fingerprints (hardware threads, pool sizes, SIMD tier, compiler,
build type) and warns when they differ within or between the sets.
Exit code: 0 = no regression, 1 = a regression, 2 = usage error.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINT_KEYS = ("nproc", "pool_workers", "threads_used", "global_pool",
                    "simd_tier", "compiler", "build_type")


def load(directory):
    results = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            r = json.load(f)
        results.setdefault(r["workload"], []).append(r)
    return results


def fingerprint(r):
    return tuple((k, r["fingerprint"].get(k)) for k in FINGERPRINT_KEYS)


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("nan")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load(argv[0]), load(argv[1])

    prints = {fingerprint(r) for rs in list(base.values()) + list(new.values())
              for r in rs}
    if len(prints) > 1:
        print("WARNING: results come from different machine fingerprints; "
              "timings are not comparable:")
        for p in sorted(prints):
            print("  " + ", ".join(f"{k}={v}" for k, v in p))

    regressions = 0
    for workload in sorted(set(base) | set(new)):
        b_runs, n_runs = base.get(workload, []), new.get(workload, [])
        print(f"\n== {workload}: {len(b_runs)} base runs, {len(n_runs)} new")
        bad = [r for r in b_runs + n_runs if not r["correct"]]
        if bad:
            print(f"  WARNING: {len(bad)} runs report incorrect outputs")
        print(f"  {'metric':20s} {'base':>12s} {'spread':>7s} {'new':>12s} "
              f"{'spread':>7s} {'change':>8s} {'bound':>6s}")
        for name, m in bounds.items():
            bv = [r["metrics"][name]["value"] for r in b_runs
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else float("nan")
            worse = change > m["bound"] if m["better"] == "lower" \
                else -change > m["bound"]
            regressions += worse
            print(f"  {name:20s} {bm:12.6g} {spread(bv):7.3f} {nm:12.6g} "
                  f"{spread(nv):7.3f} {change:+8.3f} {m['bound']:6.2f}"
                  f"{'  WORSE' if worse else ''}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
