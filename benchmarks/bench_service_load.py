#!/usr/bin/env python3
"""Service load benchmark: concurrent clients, cold vs cached latency.

Boots a real :class:`SimulationService` on an ephemeral port (event loop on
a background thread, serial engine, cold on-disk cache) and drives it with
several concurrent :class:`ServiceClient` threads over real sockets -- the
HTTP parser, the JSON-lines event stream, admission queue and executor
thread are all on the measured path.

Two phases, maintained in ``BENCH_service_load.json``:

* **cold** -- every client submits distinct sweeps (unique seeds), watches
  each job's event stream to completion and records the end-to-end latency
  (submit POST to terminal ``done`` event).  Because one executor thread
  serialises execution, cold latency includes honest queue wait -- that is
  the number a capacity planner needs, not the bare engine time.
* **cached** -- the same submissions again.  Every job must be served
  entirely from the result cache (``executed == 0``); the recorded
  latencies measure pure service overhead (parse, admit, schedule, replay
  the stream).

Gates (machine-independent, same-run relative):

* every job in both phases reaches ``done``,
* the cached phase executes zero simulator jobs,
* cached p50 latency must beat cold p50 -- the cache has to be visible at
  the service boundary, not just inside the engine.

Usage::

    python benchmarks/bench_service_load.py            # full set + checks
    python benchmarks/bench_service_load.py --quick    # CI smoke subset
    python benchmarks/bench_service_load.py --update   # re-record the JSON
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import os
import platform
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.sweep import SweepEngine  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.queue import FairQueue  # noqa: E402
from repro.service.server import SimulationService  # noqa: E402

BENCH_JSON = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_service_load.json"
)

#: Concurrent client threads / sequential submissions per client.
FULL_CLIENTS, FULL_JOBS_PER_CLIENT = 4, 3
QUICK_CLIENTS, QUICK_JOBS_PER_CLIENT = 2, 2


def client_spec(client_index: int, round_index: int, quick: bool) -> Dict[str, object]:
    """A small sweep unique to (client, round) -- distinct seeds keep the
    cold phase genuinely cold."""
    return {
        "mechanisms": ["Chronus"],
        "nrh": [128],
        "num_mixes": 1,
        "accesses": 150 if quick else 400,
        "seed": client_index * 100 + round_index,
    }


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile (no numpy dependency on the bench path)."""
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class ServiceUnderTest:
    """A live service on a background loop thread, torn down cleanly."""

    def __init__(self, cache_dir: str) -> None:
        self.engine = SweepEngine(cache=ResultCache(cache_dir), workers=0)
        self.service = SimulationService(
            engine=self.engine,
            queue=FairQueue(max_depth=256, per_client_active=64,
                            rate=1000.0, burst=1000),
        )
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.service.start(port=0))
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise RuntimeError("service did not start")

    @property
    def port(self) -> int:
        return self.service.port

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self.service.stop(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()


def drive_phase(
    port: int, clients: int, jobs_per_client: int, quick: bool
) -> List[float]:
    """Run one phase; returns per-job end-to-end latencies in seconds."""
    latencies: List[List[float]] = [[] for _ in range(clients)]
    errors: List[str] = []

    def run_client(index: int) -> None:
        client = ServiceClient(port=port, client_id=f"bench-{index}", timeout=120)
        for round_index in range(jobs_per_client):
            spec = client_spec(index, round_index, quick)
            start = time.perf_counter()
            response = client.submit(spec)
            final = client.wait(str(response["job"]), timeout=600)
            latencies[index].append(time.perf_counter() - start)
            if final.get("state") != "done":
                errors.append(
                    f"client {index} round {round_index}: state {final.get('state')!r}"
                )

    threads = [
        threading.Thread(target=run_client, args=(index,))
        for index in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=900)
        if thread.is_alive():
            errors.append("client thread did not finish")
    if errors:
        raise RuntimeError("; ".join(errors))
    return [latency for per_client in latencies for latency in per_client]


def summarise(latencies: List[float]) -> Dict[str, object]:
    return {
        "jobs": len(latencies),
        "p50_ms": round(percentile(latencies, 0.50) * 1000.0, 2),
        "p95_ms": round(percentile(latencies, 0.95) * 1000.0, 2),
        "mean_ms": round(sum(latencies) / len(latencies) * 1000.0, 2),
        "max_ms": round(max(latencies) * 1000.0, 2),
    }


def measure(quick: bool) -> Dict[str, object]:
    clients = QUICK_CLIENTS if quick else FULL_CLIENTS
    jobs_per_client = QUICK_JOBS_PER_CLIENT if quick else FULL_JOBS_PER_CLIENT
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        under_test = ServiceUnderTest(os.path.join(tmp, "cache"))
        try:
            cold = drive_phase(under_test.port, clients, jobs_per_client, quick)
            executed_cold = under_test.engine.executed_jobs
            cached = drive_phase(under_test.port, clients, jobs_per_client, quick)
            executed_cached = under_test.engine.executed_jobs - executed_cold
            stats = ServiceClient(port=under_test.port).stats()
        finally:
            under_test.close()
    return {
        "clients": clients,
        "jobs_per_client": jobs_per_client,
        "quick": quick,
        "cold": dict(summarise(cold), executed_jobs=executed_cold),
        "cached": dict(summarise(cached), executed_jobs=executed_cached),
        "jobs_done": stats["jobs_by_state"].get("done", 0),
        "cpu_count": os.cpu_count() or 1,
    }


def load_bench() -> Dict[str, object]:
    if not os.path.exists(BENCH_JSON):
        return {
            "description": (
                "Service load trajectory: cold vs cached end-to-end job "
                "latency under concurrent clients "
                "(see benchmarks/bench_service_load.py)"
            )
        }
    with open(BENCH_JSON) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset: fewer clients and submissions",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-record BENCH_service_load.json and append to the trajectory",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="measure and print only; skip every gate",
    )
    args = parser.parse_args(argv)

    measured = measure(quick=args.quick)
    cold, cached = measured["cold"], measured["cached"]
    print(
        f"cold:   p50 {cold['p50_ms']:8.1f} ms  p95 {cold['p95_ms']:8.1f} ms  "
        f"({cold['jobs']} jobs, {cold['executed_jobs']} executed)"
    )
    print(
        f"cached: p50 {cached['p50_ms']:8.1f} ms  p95 {cached['p95_ms']:8.1f} ms  "
        f"({cached['jobs']} jobs, {cached['executed_jobs']} executed)"
    )

    failures: List[str] = []
    if not args.no_check:
        if cached["executed_jobs"] != 0:
            failures.append(
                f"cached phase executed {cached['executed_jobs']} jobs; "
                "expected everything to come from the result cache"
            )
        if cold["executed_jobs"] == 0:
            failures.append("cold phase executed nothing; the cache was warm")
        if cached["p50_ms"] >= cold["p50_ms"]:
            failures.append(
                f"cached p50 {cached['p50_ms']} ms is not faster than cold "
                f"p50 {cold['p50_ms']} ms; the cache is invisible at the "
                "service boundary"
            )

    if args.update:
        bench = load_bench()
        today = datetime.date.today().isoformat()
        record = {
            "recorded_at": today,
            "recorded_on": platform.platform(),
            "python": platform.python_version(),
        }
        bench["load"] = dict(measured, **record)
        bench.setdefault("trajectory", []).append({
            "date": today,
            "python": platform.python_version(),
            "cpu_count": measured["cpu_count"],
            "clients": measured["clients"],
            "cold_p50_ms": cold["p50_ms"],
            "cold_p95_ms": cold["p95_ms"],
            "cached_p50_ms": cached["p50_ms"],
            "cached_p95_ms": cached["p95_ms"],
        })
        with open(BENCH_JSON, "w") as handle:
            json.dump(bench, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded to {BENCH_JSON}")
        from repro.artifacts.emit import emit_bench_artifact

        artifact = emit_bench_artifact(BENCH_JSON)
        print(f"recorded to {artifact}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("all service-load checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
