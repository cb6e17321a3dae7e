#!/usr/bin/env python3
"""Batch-kernel throughput: in-process batch mode vs serial vs the worker pool.

The workload is the *quick figure sweep* -- the same mechanism set, threshold
sweep and four-core mix that ``bench_fig8_multicore.py`` simulates (the
benchmark suite's largest single figure) -- executed three times from a cold
cache:

* **serial**  -- ``SweepEngine(workers=0)``, one job at a time.
* **batch**   -- ``SweepEngine(workers=0, batch=True)``: the NumPy-backed
  batch planner (``repro.experiments.batch``) shares precomputed trace
  arrays, the decoded-address table and pooled LLC / counter / timing-plane
  buffers across every config of a group.
* **pool**    -- ``SweepEngine(workers=N)``, the PR 5 process pool.

Alongside wall-clock, every run returns a digest of its result payloads:
the batch digest must be byte-identical to the serial one (the same standard
``tests/test_batch_equivalence.py`` enforces, re-checked here on the real
benchmark workload).

Machine-independent gating (CI): absolute wall-clock depends on the runner,
so the gates are *same-run* relative ratios:

* ``--min-batch-speedup X`` -- batch must be at least X times faster than
  serial, measured in the same process on the same machine.
* on a single-CPU machine the batch run must also beat the worker pool
  (process parallelism is physically useless there -- the honest pool
  number is <= 1.0x -- so in-process batching is the only lever); on
  multi-core machines the pool may legitimately win and the comparison is
  reported, not gated.

Usage::

    python benchmarks/bench_batch_throughput.py              # full set + checks
    python benchmarks/bench_batch_throughput.py --quick      # CI smoke subset
    python benchmarks/bench_batch_throughput.py --update     # re-record the JSON
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.cache import ResultCache, result_to_dict  # noqa: E402
from repro.experiments.runner import default_mixes  # noqa: E402
from repro.experiments.sweep import SweepEngine, SweepSpec  # noqa: E402

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_batch_throughput.json"
)

#: Worker count of the recorded pool comparison (bench_sweep_throughput's).
DEFAULT_WORKERS = 8

#: Fig. 8 mechanism set (bench_fig8_multicore.py).
FIG8_MECHANISMS = (
    "Chronus", "Chronus-PB", "PRAC-4", "Graphene", "Hydra", "PRFM", "PARA",
)

#: Threshold sweep of the quick benchmark suite (benchmarks/conftest.py).
BENCH_NRH_VALUES = (1024, 128, 20)


def sweep_spec(quick: bool) -> SweepSpec:
    """The quick figure sweep (full) or a CI smoke subset (quick)."""
    mixes = tuple(mix.applications for mix in default_mixes(1))
    if quick:
        # Batchable by construction: no single-app "alone" jobs (each has
        # its own trace and would form a singleton group), so the whole
        # subset shares one TracePlan and the gate measures the batch
        # engine, not the group planner's worst case.
        return SweepSpec(
            mechanisms=("Chronus", "PRAC-4", "Graphene"),
            nrh_values=(1024, 128),
            mixes=mixes,
            accesses_per_core=400,
            include_alone=False,
        )
    return SweepSpec(
        mechanisms=FIG8_MECHANISMS,
        nrh_values=BENCH_NRH_VALUES,
        mixes=mixes,
        accesses_per_core=1500,
    )


def results_digest(results) -> str:
    """Order-independent digest of every result payload in a sweep."""
    payloads = sorted(
        json.dumps(result_to_dict(result), sort_keys=True)
        for result in results.values()
    )
    return hashlib.sha256("\n".join(payloads).encode()).hexdigest()


def run_cold_sweep(
    spec: SweepSpec, workers: int, batch: bool = False
) -> Dict[str, object]:
    """Execute ``spec`` once from a cold cache and time it.

    Each pass uses a fresh cold cache (the point is execution speed, not
    cache hits).  Callers repeat this and keep the per-mode minimum -- see
    ``main``, which *interleaves* the modes round-robin so that the slow
    frequency drift of a shared-host runner lands on every mode equally
    instead of flattering whichever mode ran during a fast window.
    """
    with tempfile.TemporaryDirectory(prefix="bench-batch-") as tmp:
        engine = SweepEngine(
            cache=ResultCache(os.path.join(tmp, "cache")),
            workers=workers,
            batch=batch,
        )
        try:
            start = time.perf_counter()
            results = engine.run(spec)
            elapsed = time.perf_counter() - start
            cold_report = engine.last_run_report
            # Warm re-run: everything must come from the cache.
            engine.run(spec)
            warm_executed = engine.last_run_report.executed_jobs
        finally:
            engine.close()
    return {
        "jobs": len(results),
        "seconds": elapsed,
        "warm_executed": warm_executed,
        "shards": len(cold_report.shards),
        "digest": results_digest(results),
    }


def _keep_best(
    best: Optional[Dict[str, object]], new: Dict[str, object]
) -> Dict[str, object]:
    """The per-mode minimum over interleaved rounds."""
    if best is None or new["seconds"] < best["seconds"]:
        return new
    return best


def load_bench() -> Dict[str, object]:
    if not os.path.exists(BENCH_JSON):
        return {
            "description": (
                "Batch-kernel throughput on the quick figure sweep: "
                "in-process batch mode vs serial vs the worker pool "
                "(see benchmarks/bench_batch_throughput.py)"
            )
        }
    with open(BENCH_JSON) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset: two mechanisms, one threshold, 400 accesses",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-record BENCH_batch_throughput.json and append to the trajectory",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="measure and print only; skip every gate",
    )
    parser.add_argument(
        "--no-pool", action="store_true",
        help="skip the worker-pool comparison (serial + batch only)",
    )
    parser.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS, metavar="N",
        help=f"worker count of the pool comparison (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="interleaved cold-sweep rounds (serial/batch/pool per round); "
             "the per-mode minimum is recorded (default 1)",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=None, metavar="X",
        help="machine-independent gate: fail unless the batch cold sweep is "
             "at least X times faster than the serial one measured in the "
             "same run",
    )
    args = parser.parse_args(argv)

    cpu_count = os.cpu_count() or 1
    failures: List[str] = []
    bench = load_bench()

    spec = sweep_spec(args.quick)
    label = "quick" if args.quick else "full"
    jobs = len(spec.expand())

    repeats = max(1, args.repeats)
    rounds = "round" if repeats == 1 else "interleaved rounds"
    print(f"cold sweep ({label}): {jobs} jobs, {repeats} {rounds}...")
    serial: Optional[Dict[str, object]] = None
    batch: Optional[Dict[str, object]] = None
    pool: Optional[Dict[str, object]] = None
    for _ in range(repeats):
        serial = _keep_best(serial, run_cold_sweep(spec, workers=0))
        batch = _keep_best(batch, run_cold_sweep(spec, workers=0, batch=True))
        if not args.no_pool:
            pool = _keep_best(pool, run_cold_sweep(spec, workers=args.workers))
    assert serial is not None and batch is not None
    print(f"  serial: {serial['seconds']:6.2f}s ({serial['jobs']} jobs)")
    batch_speedup = serial["seconds"] / batch["seconds"]
    print(
        f"  batch:  {batch['seconds']:6.2f}s ({batch_speedup:.2f}x vs "
        f"serial, {batch['shards']} batch group(s))"
    )

    pool_speedup = None
    if pool is not None:
        pool_speedup = serial["seconds"] / pool["seconds"]
        print(
            f"  pool:   {pool['seconds']:6.2f}s ({pool_speedup:.2f}x vs "
            f"serial, cpu_count={cpu_count})"
        )

    if not args.no_check:
        if batch["digest"] != serial["digest"]:
            failures.append(
                "batch result payloads differ from serial (byte-identity "
                "violated on the benchmark workload)"
            )
        else:
            print("digest: batch results byte-identical to serial: OK")
        for name, run in (("serial", serial), ("batch", batch), ("pool", pool)):
            if run is not None and run["warm_executed"]:
                failures.append(
                    f"warm {name} re-run executed jobs: the cache did not "
                    f"serve the sweep"
                )
        if args.min_batch_speedup is not None:
            if batch_speedup < args.min_batch_speedup:
                failures.append(
                    f"batch cold sweep only {batch_speedup:.2f}x faster than "
                    f"serial (floor {args.min_batch_speedup:.2f}x)"
                )
            else:
                print(
                    f"batch gate: {batch_speedup:.2f}x >= "
                    f"{args.min_batch_speedup:.2f}x: OK"
                )
        if pool is not None and cpu_count < 2:
            # The ISSUE 6 acceptance comparison: on a single-CPU box the
            # pool cannot help, so batch mode must be the faster engine.
            if batch["seconds"] >= pool["seconds"]:
                failures.append(
                    f"batch ({batch['seconds']:.2f}s) not faster than the "
                    f"{args.workers}-worker pool ({pool['seconds']:.2f}s) on "
                    f"a single-CPU machine"
                )
            else:
                print(
                    f"single-CPU gate: batch {pool['seconds'] / batch['seconds']:.2f}x "
                    f"faster than the {args.workers}-worker pool: OK"
                )

    if args.update:
        bench["cold_sweep"] = {
            "spec": label,
            "jobs": serial["jobs"],
            "serial_seconds": round(serial["seconds"], 3),
            "batch_seconds": round(batch["seconds"], 3),
            "batch_speedup": round(batch_speedup, 3),
            "batch_groups": batch["shards"],
            "pool_seconds": (
                round(pool["seconds"], 3) if pool is not None else None
            ),
            "pool_speedup": (
                round(pool_speedup, 3) if pool_speedup is not None else None
            ),
            "workers": args.workers,
            "cpu_count": cpu_count,
            "repeats": max(1, args.repeats),
            "digest_match": batch["digest"] == serial["digest"],
            "note": (
                "single-process numbers; on a 1-CPU machine the pool "
                "speedup is honestly <= 1.0x and batch mode is the only "
                "way to beat serial.  Since the structure-of-arrays bank "
                "timing plane became the default backend, serial runs the "
                "same vectorized kernels as batch, so the full-sweep ratio "
                "compressed to the shareable-setup fraction; the quick "
                "sweep, where shared precomputation dominates, still shows "
                "the batch engine's full advantage."
            ),
        }
        bench["recorded_on"] = platform.platform()
        bench["python"] = platform.python_version()
        bench["recorded_at"] = time.strftime("%Y-%m-%d")
        bench.setdefault("trajectory", []).append(
            {
                "date": time.strftime("%Y-%m-%d"),
                "spec": label,
                "serial_seconds": round(serial["seconds"], 3),
                "batch_speedup": round(batch_speedup, 3),
                "pool_speedup": (
                    round(pool_speedup, 3) if pool_speedup is not None else None
                ),
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

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
