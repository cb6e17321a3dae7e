#!/usr/bin/env python3
"""Sweep-throughput benchmark: cold-sweep worker-pool scaling.

One declarative sweep executed from a cold cache: serially, then across the
persistent pool, one task per job.  Wall-clock for both, plus the warm
re-run (which must be 100 % cached), maintained in
``BENCH_sweep_throughput.json``.  Back-to-back pairs of the same sweep
spread widely, so ``--update`` times :data:`UPDATE_PAIRS` alternating
serial/pool pairs and records the median and quartiles of each; a run
whose checks fail exits 1 and records nothing.  Single-run simulator speed
is measured by the repository benchmark, ``benchmarks/e2e/run.py``.

Machine-independent gating (CI): absolute wall-clock depends on the runner,
so the CI gate is the *same-run* relative speedup ``--min-parallel-speedup``,
with the honest caveat that parallel speedup is bounded by the physical core
count -- the recorded ``cpu_count`` travels with every measurement.  On
single-CPU machines, where no pool speedup is physically possible, the gate
is skipped with a note.

Usage::

    python benchmarks/bench_sweep_throughput.py            # full sweep + checks
    python benchmarks/bench_sweep_throughput.py --quick    # CI smoke subset
    python benchmarks/bench_sweep_throughput.py --update   # re-record the JSON
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.sweep import SweepEngine, SweepSpec  # noqa: E402

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_sweep_throughput.json"
)

#: Worker count of the recorded scaling measurement.
DEFAULT_WORKERS = 8

#: Alternating serial/pool pairs that ``--update`` times.
UPDATE_PAIRS = 10


def sweep_spec(quick: bool) -> SweepSpec:
    """The cold-sweep job set (a realistic mechanism-comparison sweep)."""
    if quick:
        return SweepSpec(
            mechanisms=("Chronus", "PRAC-4"),
            nrh_values=(1024,),
            mixes=(("429.mcf", "401.bzip2"), ("429.mcf", "462.libquantum")),
            accesses_per_core=400,
        )
    return SweepSpec(
        mechanisms=("Chronus", "PRAC-4", "Graphene", "PRFM"),
        nrh_values=(1024, 128),
        mixes=(
            ("429.mcf", "401.bzip2"),
            ("429.mcf", "462.libquantum"),
            ("401.bzip2", "462.libquantum"),
        ),
        accesses_per_core=800,
    )


def run_cold_sweep(spec: SweepSpec, workers: int) -> Dict[str, object]:
    """Execute ``spec`` from a cold on-disk cache; return timing + counts."""
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        engine = SweepEngine(cache=ResultCache(os.path.join(tmp, "cache")),
                             workers=workers)
        try:
            start = time.perf_counter()
            results = engine.run(spec)
            elapsed = time.perf_counter() - start
            # Warm re-run: everything must come from the cache.
            engine.run(spec)
            warm_executed = engine.last_run_report.executed_jobs
        finally:
            engine.close()
    return {
        "jobs": len(results),
        "seconds": elapsed,
        "warm_executed": warm_executed,
    }


def spread(samples: List[float]) -> Dict[str, float]:
    """Median and quartiles, the way ``benchmarks/e2e/run.py`` reports them."""
    median = statistics.median(samples)
    q1, q3 = (
        statistics.quantiles(samples, n=4)[::2] if len(samples) > 1 else (median, median)
    )
    return {"median": round(median, 3), "q1": round(q1, 3), "q3": round(q3, 3)}


def load_bench() -> Dict[str, object]:
    if not os.path.exists(BENCH_JSON):
        return {
            "description": (
                "Sweep-throughput trajectory: cold-sweep worker-pool scaling "
                "(see benchmarks/bench_sweep_throughput.py)"
            )
        }
    with open(BENCH_JSON) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset: a small cold sweep",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-record BENCH_sweep_throughput.json and append to the trajectory",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="measure and print only; skip every gate",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS, metavar="N",
        help=f"worker count of the parallel measurement (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--min-parallel-speedup", type=float, default=None, metavar="X",
        help="machine-independent gate: fail unless the parallel cold sweep "
             "is at least X times faster than the serial one measured in the "
             "same run (skipped with a note on single-CPU machines)",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    failures: List[str] = []
    bench = load_bench()

    spec = sweep_spec(args.quick)
    label = "quick" if args.quick else "full"
    pairs = UPDATE_PAIRS if args.update else 1
    print(
        f"cold sweep ({label}): {len(spec.expand())} jobs, {pairs} pair(s) of "
        f"serial then {args.workers} workers"
    )
    serial_seconds: List[float] = []
    parallel_seconds: List[float] = []
    speedups: List[float] = []
    warm_executed = 0
    for _ in range(pairs):
        serial = run_cold_sweep(spec, workers=0)
        parallel = run_cold_sweep(spec, workers=args.workers)
        serial_seconds.append(serial["seconds"])
        parallel_seconds.append(parallel["seconds"])
        speedups.append(serial["seconds"] / parallel["seconds"])
        warm_executed += serial["warm_executed"] + parallel["warm_executed"]
        print(
            f"  serial {serial['seconds']:6.2f}s  parallel "
            f"{parallel['seconds']:6.2f}s  ({speedups[-1]:.2f}x)"
        )
    parallel_speedup = statistics.median(speedups)
    print(f"  median speedup {parallel_speedup:.2f}x (cpu_count={cpu_count})")

    if not args.no_check:
        if warm_executed:
            failures.append(
                "warm re-run executed jobs: the cache did not serve the sweep"
            )
        if args.min_parallel_speedup is not None:
            if cpu_count < 2:
                # No pool speedup is physically possible on one CPU.
                print("parallel gate: skipped on this single-CPU machine")
            elif parallel_speedup < args.min_parallel_speedup:
                failures.append(
                    f"parallel cold sweep only {parallel_speedup:.2f}x faster "
                    f"than serial (floor {args.min_parallel_speedup:.2f}x)"
                )
            else:
                print(
                    f"parallel gate: {parallel_speedup:.2f}x >= "
                    f"{args.min_parallel_speedup:.2f}x: OK"
                )

    if failures:
        # A failed measurement never reaches the committed record.
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    if args.update:
        speedup = spread(speedups)
        bench["cold_sweep"] = {
            "spec": label,
            "jobs": serial["jobs"],
            "pairs": pairs,
            "serial_seconds": spread(serial_seconds),
            "parallel_seconds": spread(parallel_seconds),
            "workers": args.workers,
            "cpu_count": cpu_count,
            "speedup": speedup,
            "note": (
                "median and quartiles of alternating serial/pool pairs; "
                "parallel speedup is bounded by cpu_count, and on a 1-CPU "
                "machine the honest measurement is ~1.0x regardless of the "
                "worker count"
            ),
        }
        bench.setdefault("trajectory", []).append(
            {
                "date": time.strftime("%Y-%m-%d"),
                "cold_sweep_speedup": speedup["median"],
                "cold_sweep_speedup_q1": speedup["q1"],
                "cold_sweep_speedup_q3": speedup["q3"],
                "pairs": pairs,
                "cpu_count": cpu_count,
                "python": platform.python_version(),
            }
        )
        with open(BENCH_JSON, "w") as handle:
            json.dump(bench, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"re-recorded {BENCH_JSON}")
        from repro.artifacts.emit import emit_bench_artifact

        artifact = emit_bench_artifact(BENCH_JSON)
        print(f"re-recorded {artifact}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
