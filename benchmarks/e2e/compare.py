#!/usr/bin/env python3
"""Compare two results files of the end-to-end benchmark.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline (the parent commit, or the first set of runs) and
``B`` the candidate; both are files written by ``run.py --out``.  For every
(end-to-end metric, workload) pair the tool prints both medians with their
quartiles and a verdict against the metric's bound in BENCHMARK.json:

``unresolved``
    the quartile spread (q3 - q1, as a share of the median) of either side
    exceeds the bound, and not every B sample beats every A sample;
``worse``
    B's median is worse than A's by more than the bound;
``better``
    B's median is better than A's by more than A's own quartile spread;
``unchanged``
    otherwise.

``error_rate`` may not rise at all.  The digest line of each workload says
whether both files simulated identical results (meaningful for equal seeds).
The exit code is 1 when any pair is worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)


def _spread(entry: Dict[str, object]) -> float:
    return (entry["q3"] - entry["q1"]) / entry["median"]


def verdict(a: Dict[str, object], b: Dict[str, object], bound: float, lower: bool) -> str:
    """Verdict of candidate ``b`` against baseline ``a`` for one metric."""
    sign = 1.0 if lower else -1.0
    # Positive when B is worse than A, as a share of A's median.
    change = sign * (b["median"] - a["median"]) / a["median"]
    b_always_better = all(
        sign * x < sign * y for x in b["samples"] for y in a["samples"]
    )
    if max(_spread(a), _spread(b)) > bound and not b_always_better:
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > _spread(a):
        return "better"
    return "unchanged"


def compare(a: Dict[str, object], b: Dict[str, object], metrics: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per (workload, metric) present in both results files."""
    rows = []
    for workload, a_result in a["workloads"].items():
        b_result: Optional[Dict[str, object]] = b["workloads"].get(workload)
        if b_result is None:
            continue
        for metric in metrics:
            name = metric["name"]
            a_entry = a_result["metrics"].get(name)
            b_entry = b_result["metrics"].get(name)
            if a_entry is None or b_entry is None:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": a_entry, "b": b_entry, "bound": metric["bound"],
                "change": (b_entry["median"] - a_entry["median"]) / a_entry["median"],
                "verdict": verdict(
                    a_entry, b_entry, metric["bound"], metric["better"] == "lower"
                ),
            })
        a_errors = a_result["metrics"]["error_rate"]["value"]
        b_errors = b_result["metrics"]["error_rate"]["value"]
        rows.append({
            "workload": workload, "metric": "error_rate", "unit": "fraction",
            "a": a_errors, "b": b_errors, "bound": 0.0, "change": b_errors - a_errors,
            "verdict": "worse" if b_errors > a_errors else (
                "better" if b_errors < a_errors else "unchanged"
            ),
        })
    return rows


def _cell(entry) -> str:
    if isinstance(entry, dict):
        return f"{entry['median']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}] n={entry['n']}"
    return f"{entry:.5g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="results JSON of the baseline (A)")
    parser.add_argument("candidate", help="results JSON of the candidate (B)")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as handle:
        metrics = json.load(handle)["end_to_end"]
    with open(args.baseline) as handle:
        a = json.load(handle)
    with open(args.candidate) as handle:
        b = json.load(handle)

    print(f"A = {args.baseline} (seed {a['seed']}), B = {args.candidate} (seed {b['seed']})")
    rows = compare(a, b, metrics)
    print(
        f"{'workload':<13} {'metric':<13} {'A median [q1, q3]':<38} "
        f"{'B median [q1, q3]':<38} {'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<13} {_cell(row['a']):<38} "
            f"{_cell(row['b']):<38} {row['change']:>+8.2%} {row['bound']:>6.0%}  "
            f"{row['verdict']}"
        )
    for workload in a["workloads"]:
        if workload in b["workloads"]:
            a_digest = a["workloads"][workload]["digest"]
            b_digest = b["workloads"][workload]["digest"]
            same = "same results" if a_digest == b_digest else "DIFFERENT results"
            print(f"digest {workload}: A {a_digest}  B {b_digest}  ({same})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
