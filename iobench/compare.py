#!/usr/bin/env python3
"""Compare two benchmark result sets and flag regressions.

    python3 iobench/compare.py BASE.json NEW.json

A result set is {workload: [result, ...]}, as `run.py --save` writes it.
For every end-to-end metric of BENCHMARK.json and every workload in both
sets, the medians over the runs are compared; a metric is flagged when the
new median is worse than the base median by more than the metric's bound
(a share of the base median). Exits 1 if anything is flagged.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_bounds(path=os.path.join(ROOT, "BENCHMARK.json")):
    """{metric: (bound, better)} for the bounded end-to-end metrics."""
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}


def median(runs, metric):
    return statistics.median(r["metrics"][metric]["value"] for r in runs)


def compare(base, new, bounds):
    """One row per (workload, metric): medians, the relative worsening
    (positive = worse) and whether it exceeds the bound."""
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric, (bound, better) in sorted(bounds.items()):
            b = median(base[workload], metric)
            n = median(new[workload], metric)
            worse = (n - b) / abs(b) if better == "lower" else (b - n) / abs(b)
            rows.append({"workload": workload, "metric": metric, "base": b,
                         "new": n, "worse": worse, "flagged": worse > bound})
    return rows


def flagged(rows):
    """The (workload, metric) pairs that regressed beyond their bound."""
    return {(r["workload"], r["metric"]) for r in rows if r["flagged"]}


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    rows = compare(base, new, load_bounds())
    for r in rows:
        mark = "REGRESSION" if r["flagged"] else "ok"
        print(f"{r['workload']:<15} {r['metric']:<12} base {r['base']:<12.6g} "
              f"new {r['new']:<12.6g} worse by {100 * r['worse']:+6.2f}%  {mark}")
    return 1 if flagged(rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
