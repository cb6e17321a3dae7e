#!/usr/bin/env python3
"""cProfile entry point for the simulator hot path.

Perf PRs should start from data, not intuition.  This tool runs one
representative simulation under :mod:`cProfile` and prints the top cumulative
hot spots, so "where does the time go?" has a one-command answer::

    PYTHONPATH=src python -m tools.profile_run --mechanism prac --channels 2
    PYTHONPATH=src python -m tools.profile_run --mechanism graphene --sort tottime
    PYTHONPATH=src python -m tools.profile_run --mechanism none --out prof.pstats
    PYTHONPATH=src python -m tools.profile_run --json --top 10 > hotspots.json

Mechanism names are matched case-insensitively against the factory registry
(``prac`` resolves to ``PRAC-4``); the workload is the reference mix of
``tests/golden_reference_set.json``, so a profile runs a job whose simulated
numbers are pinned.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import sys
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.factory import MECHANISM_NAMES  # noqa: E402
from repro.experiments.sweep import build_job_traces, mechanism_job  # noqa: E402
from repro.system.config import paper_system_config  # noqa: E402
from repro.system.simulator import simulate  # noqa: E402

#: The reference mix (keep in sync with tests/golden_reference_set.json).
APPS = ("429.mcf", "401.bzip2")

#: Shorthand aliases accepted on top of the exact registry names.
ALIASES = {
    "prac": "PRAC-4",
    "chronus-pb": "Chronus-PB",
    "pb": "Chronus-PB",
}


def resolve_mechanism(name: str) -> str:
    """Match ``name`` case-insensitively against the mechanism registry."""
    lowered = name.lower()
    if lowered in ALIASES:
        return ALIASES[lowered]
    for registered in MECHANISM_NAMES:
        if registered.lower() == lowered:
            return registered
    raise ValueError(
        f"unknown mechanism {name!r}; expected one of {', '.join(MECHANISM_NAMES)}"
    )


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
        "--mechanism", default="prac", metavar="NAME",
        help="mechanism to profile (case-insensitive; 'prac' = PRAC-4)",
    )
    parser.add_argument(
        "--channels", type=int, default=1, metavar="N",
        help="memory channels of the simulated system (default: 1)",
    )
    parser.add_argument(
        "--nrh", type=int, default=64, metavar="N",
        help="RowHammer threshold (default: 64, the reference-set value)",
    )
    parser.add_argument(
        "--accesses", type=int, default=1500, metavar="N",
        help="memory accesses per core (default: 1500, the reference-set value)",
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

    try:
        mechanism = resolve_mechanism(args.mechanism)
        base = paper_system_config().with_overrides(channels=args.channels)
        job = mechanism_job(base, APPS, mechanism, args.nrh, args.accesses)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    traces = build_job_traces(job)

    if not args.json:
        print(
            f"profiling {mechanism} @ N_RH={args.nrh}, {args.channels} "
            f"channel(s), {args.accesses} accesses/core ({'+'.join(APPS)})"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate(
        job.config, traces,
        workload_name=job.workload_name, strict_tick=args.strict_tick,
    )
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort)
    if args.json:
        summary = {
            "mechanism": mechanism,
            "channels": args.channels,
            "nrh": args.nrh,
            "accesses": args.accesses,
            "strict_tick": args.strict_tick,
            "sort": args.sort,
            "cycles": result.cycles,
            "reads_served": result.controller_stats["reads_served"],
            "top": top_functions(stats, args.sort, args.top),
        }
        json.dump(summary, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        stats.print_stats(args.top)
        print(
            f"simulated {result.cycles} DRAM cycles, "
            f"{result.controller_stats['reads_served']} reads served"
        )
    if args.out:
        stats.dump_stats(args.out)
        if not args.json:
            print(f"raw pstats dumped to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
