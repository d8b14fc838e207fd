#!/usr/bin/env python3
"""Compare the parent and change runs of a benchmark ledger.

    python3 scripts/bench_compare.py BENCH_N.json

For each workload and end-to-end metric of ``BENCHMARK.json`` this prints
one row: the parent and change medians and quartiles
(``statistics.quantiles(method="inclusive")``), the ratio of the medians,
the median of the change/parent ratios with runs paired by their order
within the workload, the pairs the change won, the parent's own spread
(IQR/median), and how the ratio of the medians stands against the metric's
bound: ``gain`` when it is better by more than the bound (1 - ratio > bound
where lower is better), ``within``, ``beyond``, or ``unresolved`` when it
is beyond but the parent's own spread is wider than the bound.  A line per workload gives the
runs, the failed operations and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _values(runs: list, metric: str) -> list[float]:
    return [run["result"]["metrics"][metric]["value"] for run in runs]


def compare(ledger: list, benchmark: dict) -> list[dict]:
    """One row per end-to-end metric of each workload the ledger has runs of on both sides."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {label: [e for e in ledger if e["workload"] == workload and e["label"] == label]
                for label in ("parent", "change")}
        if not all(runs.values()):
            continue
        for spec in benchmark["end_to_end"]:
            name, lower = spec["name"], spec["better"] == "lower"
            parent, change = _values(runs["parent"], name), _values(runs["change"], name)
            pairs = list(zip(parent, change))
            p_med, c_med = statistics.median(parent), statistics.median(change)
            p_q1, _, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
            ratio = c_med / p_med
            worse = ratio - 1.0 if lower else 1.0 / ratio - 1.0
            better = 1.0 - ratio if lower else ratio - 1.0
            spread = (p_q3 - p_q1) / p_med
            bound = spec["bound"]
            rows.append({
                "workload": workload, "metric": name, "unit": spec["unit"],
                "parent_median": p_med, "change_median": c_med,
                "parent_quartiles": (p_q1, p_q3),
                "change_quartiles": tuple(statistics.quantiles(change, n=4, method="inclusive")[::2]),
                "ratio": ratio,
                "paired_ratio": statistics.median(c / p for p, c in pairs),
                "pairs_won": sum((c < p) if lower else (c > p) for p, c in pairs),
                "pairs": len(pairs),
                "parent_spread": spread,
                "bound": bound,
                "standing": ("gain" if better > bound else "within" if worse <= bound
                             else "unresolved" if spread > bound else "beyond"),
            })
    return rows


def _runs_line(ledger: list, workload: str) -> str:
    parts = []
    for label in ("parent", "change"):
        runs = [e["result"] for e in ledger if e["workload"] == workload and e["label"] == label]
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        parts.append(f"{label} {len(runs)} runs, {failed} of {attempted} operations failed, correct {correct}")
    return f"{workload}: " + "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ledger", help="a BENCH_<N>.json ledger file")
    args = parser.parse_args(argv)
    with open(args.ledger) as fh:
        ledger = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    rows = compare(ledger, benchmark)
    print(f"{'workload':16} {'metric':12} {'parent (Q1-Q3)':32} {'change (Q1-Q3)':32} "
          f"{'ratio':>6} {'paired':>6} {'won':>5} {'IQR/med':>7}  bound")
    for r in rows:
        cells = [f"{r[f'{side}_median']:.4g} ({r[f'{side}_quartiles'][0]:.4g}-{r[f'{side}_quartiles'][1]:.4g})"
                 for side in ("parent", "change")]
        print(f"{r['workload']:16} {r['metric']:12} {cells[0]:32} {cells[1]:32} {r['ratio']:6.3f} "
              f"{r['paired_ratio']:6.3f} {r['pairs_won']:>2}/{r['pairs']:<2} {r['parent_spread']:7.2f}  "
              f"{r['standing']} ({r['bound']})")
    for workload in dict.fromkeys(r["workload"] for r in rows):
        print(_runs_line(ledger, workload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
