#!/usr/bin/env python3
"""cProfile entry point for one job of the repository benchmark.

Perf PRs should start from data, not intuition.  This tool runs one job of
a ``benchmarks/e2e`` workload under :mod:`cProfile` and prints the top
cumulative hot spots, so "where does the time go?" has a one-command
answer on the very jobs the benchmark times::

    PYTHONPATH=src python -m tools.profile_run
    PYTHONPATH=src python -m tools.profile_run --workload wave --job Chronus --sort tottime
    PYTHONPATH=src python -m tools.profile_run --workload benign-4core --job PRAC-4/ch2
    PYTHONPATH=src python -m tools.profile_run --json --top 10 > hotspots.json

The default is the ``perf-attack`` workload's PRAC-4 job, where back-offs
and RFMs fire.  Jobs are taken from ``harness.job_set(workload, 0)``, the
seed the committed fingerprints were recorded with, and run the way the
sweep's ``execute_job`` runs them: an attack job gets a
``DisturbanceOracle``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
from typing import Dict, List, Optional

_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "benchmarks", "e2e"))

import harness  # noqa: E402
from repro.attacks.oracle import DisturbanceOracle  # noqa: E402
from repro.experiments.sweep import build_job_traces  # noqa: E402
from repro.system.simulator import simulate  # noqa: E402


def top_functions(
    stats: pstats.Stats, sort: str, top: int
) -> List[Dict[str, object]]:
    """The top-``top`` profile rows as plain records (the ``--json`` view)."""
    rows = []
    for (filename, line, name), record in stats.stats.items():  # type: ignore[attr-defined]
        cc, nc, tt, ct = record[0], record[1], record[2], record[3]
        rows.append(
            {
                "function": f"{os.path.basename(filename)}:{line}({name})",
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tt, 6),
                "cumtime": round(ct, 6),
            }
        )
    key = {"cumulative": "cumtime", "tottime": "tottime", "calls": "ncalls"}[sort]
    rows.sort(key=lambda row: row[key], reverse=True)
    return rows[:top]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.profile_run",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--workload", default="perf-attack", metavar="NAME",
        help="benchmark workload (default: perf-attack)",
    )
    parser.add_argument(
        "--job", default="PRAC-4", metavar="ID",
        help="job id within the workload (default: PRAC-4)",
    )
    parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows of the pstats report to print (default: 20)",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "calls"],
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--strict-tick", action="store_true",
        help="profile the cycle-stepped reference path instead",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also dump the raw pstats data for snakeviz/pstats browsing",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable top-N summary (honours --sort/--top) "
             "instead of the pstats text report",
    )
    args = parser.parse_args(argv)

    if args.workload not in harness.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{', '.join(harness.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    jobs = harness.job_set(args.workload, harness.FINGERPRINT_SEED)
    if args.job not in jobs:
        print(
            f"error: unknown job {args.job!r} of {args.workload}; expected one "
            f"of {', '.join(jobs)}",
            file=sys.stderr,
        )
        return 2
    job = jobs[args.job]
    traces = build_job_traces(job)
    oracle = None
    if job.attack is not None:
        oracle = DisturbanceOracle(
            nrh=job.config.nrh,
            num_channels=job.config.organization.channels,
        )

    if not args.json:
        print(f"profiling {args.workload} job {args.job} ({job.workload_name})")
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate(
        job.config, traces, workload_name=job.workload_name,
        oracle=oracle, strict_tick=args.strict_tick, seed=job.seed,
    )
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    counts = result.controller_stats
    if args.json:
        summary = {
            "workload": args.workload,
            "job": args.job,
            "mechanism": job.config.mechanism,
            "nrh": job.config.nrh,
            "strict_tick": args.strict_tick,
            "sort": args.sort,
            "cycles": result.cycles,
            "commands": sum(result.command_counts.values()),
            "backoffs": counts["backoffs_observed"],
            "rfms": counts["rfms"],
            "top": top_functions(stats, args.sort, args.top),
        }
        json.dump(summary, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        stats.print_stats(args.top)
        print(
            f"simulated {result.cycles} DRAM cycles, "
            f"{sum(result.command_counts.values())} commands, "
            f"{counts['backoffs_observed']} back-offs, {counts['rfms']} RFMs"
        )
    if args.out:
        stats.dump_stats(args.out)
        if not args.json:
            print(f"raw pstats dumped to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
