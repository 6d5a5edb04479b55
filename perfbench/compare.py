#!/usr/bin/env python3
"""Compares two sets of netclus benchmark result rows.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds rows appended by perfbench/run.py (one JSON object per
line). For every workload the tool prints each end-to-end metric and each
recorded detail with the median and quartiles of both sets and the change
of the median. An end-to-end move beyond the bound fixed in BENCHMARK.json
is flagged REGRESSION (worse) or IMPROVED (better); when the base set's
own spread (IQR / median) exceeds the bound the move is marked unresolved.
Traced rows are compared the same way for the per-layer metrics.

The exact counters named in perfbench/workloads.json (settled nodes, heap
pops, k-medoids swaps attempted, storage page counts, ...) do not depend
on the hardware: for every workload and seed present in both sets they
must be identical, and identical across repeated runs within a set. Any
drift makes the tool exit with status 1.
"""

import argparse
import fnmatch
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_rows(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q = statistics.quantiles(values, n=4)
    return med, q[0], q[2]


def values_of(rows, field, name):
    return [r[field][name]["value"] for r in rows if name in r[field]]


def fmt(v):
    return "%.5g" % v


def compare_block(title, names, units, base, new, field, bounds, better):
    print("\n%s" % title)
    print("  %-34s %-5s %26s %26s %9s  %s" % (
        "metric", "unit", "base median [q1, q3]", "new median [q1, q3]",
        "change", "verdict"))
    for name in names:
        b = values_of(base, field, name)
        n = values_of(new, field, name)
        if not b or not n:
            continue
        bm, bq1, bq3 = summary(b)
        nm, nq1, nq3 = summary(n)
        change = (nm - bm) / bm if bm else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]
            worse = change > 0 if better[name] == "lower" else change < 0
            spread = (bq3 - bq1) / bm if bm else 0.0
            if abs(change) <= bound:
                verdict = "within bound %.2f" % bound
            elif spread > bound:
                verdict = "unresolved (base spread %.2f > bound)" % spread
            else:
                verdict = "REGRESSION" if worse else "IMPROVED"
        print("  %-34s %-5s %26s %26s %+8.1f%%  %s" % (
            name, units.get(name, ""),
            "%s [%s, %s]" % (fmt(bm), fmt(bq1), fmt(bq3)),
            "%s [%s, %s]" % (fmt(nm), fmt(nq1), fmt(nq3)),
            change * 100, verdict))


def exact_drift(base, new, patterns):
    """Lists (workload, seed, metric, values) whose exact counters differ
    within or across the two sets."""
    by_key = {}
    for side, rows in (("base", base), ("new", new)):
        for r in rows:
            if not r.get("trace"):
                continue
            for name, m in r["metrics"].items():
                if any(fnmatch.fnmatch(name, p) for p in patterns):
                    key = (r["workload"], r["seed"], name)
                    by_key.setdefault(key, []).append((side, m["value"]))
    drift = []
    for key, seen in sorted(by_key.items()):
        if len({v for _, v in seen}) > 1:
            drift.append(key + (seen,))
    return drift


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    config = json.load(open(os.path.join(HERE, "workloads.json")))
    base = load_rows(args.base)
    new = load_rows(args.new)

    e2e = bench["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in e2e}
    better = {m["name"]: m["better"] for m in e2e}
    units = {m["name"]: m["unit"] for m in e2e + bench["per_layer"]}

    workloads = sorted({r["workload"] for r in base + new})
    for w in workloads:
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == w and r["trace"] == trace]
            n = [r for r in new if r["workload"] == w and r["trace"] == trace]
            if not b or not n:
                continue
            kind = "per-layer (traced)" if trace else "end-to-end"
            names = [m["name"] for m in
                     (bench["per_layer"] if trace else e2e)]
            compare_block("== %s: %s, %d base rows, %d new rows"
                          % (w, kind, len(b), len(n)),
                          names, units, b, n, "metrics",
                          {} if trace else bounds, better)
            details = sorted({k for r in b + n for k in r["detail"]})
            for r in b + n:
                for k, m in r["detail"].items():
                    units.setdefault(k, m["unit"])
            compare_block("   %s details (recorded, not gated)" % w,
                          details, units, b, n, "detail", {}, {})

    drift = exact_drift(base, new, config["exact_counters"])
    if drift:
        print("\nEXACT COUNTER DRIFT:")
        for w, seed, name, seen in drift:
            print("  %s seed %s %s: %s" % (
                w, seed, name, ", ".join("%s=%.17g" % (s, v)
                                         for s, v in seen)))
        return 1
    print("\nexact counters: no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
