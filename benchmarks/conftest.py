"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The
simulations are scaled down (few mixes, a few thousand memory accesses per
core) so the whole suite runs on a laptop; the *shape* of each figure -- which
mechanism wins, how overheads scale with the RowHammer threshold -- is what
the benchmarks reproduce, print and assert.  docs/EXPERIMENTS.md ("How the
figure benchmarks map onto the engine") lists the sweep behind each one; no
run's output is recorded next to the paper's numbers yet.

All simulation-backed benchmarks share one session-scoped
:class:`~repro.experiments.sweep.SweepEngine` whose results persist in an
on-disk cache (``REPRO_CACHE_DIR``, default ``benchmarks/.repro-cache``).
The first run simulates everything; every later run -- including a different
figure that shares baselines -- is served from the cache.  Each benchmark
prints the cache statistics so the served-from-cache fraction is visible in
the output.  Set ``REPRO_SWEEP_WORKERS=N`` (the engine's own knob) to
simulate missing jobs across N worker processes.

Each benchmark runs exactly once (``rounds=1``): the interesting output is the
figure data itself, the wall-clock time is reported by pytest-benchmark as a
bonus.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import pytest


def _env_int(name: str, default: int) -> int:
    """``$name`` as an integer, or ``default`` when it is unset.

    Unparsable text raises instead of falling back, so a typo such as
    ``REPRO_BENCH_ACCESSES=6k`` cannot silently run the default budget.
    """
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


#: Memory accesses per core used by the scaled-down simulation benchmarks.
#: Override with REPRO_BENCH_ACCESSES for a larger (slower, more faithful) run.
BENCH_ACCESSES = _env_int("REPRO_BENCH_ACCESSES", 1500)

#: Workload mixes per sweep point (REPRO_BENCH_MIXES overrides; the paper uses 60).
BENCH_MIXES = _env_int("REPRO_BENCH_MIXES", 1)

#: RowHammer thresholds swept by the scaled-down benchmarks (a subset of the
#: paper's 1K..20 sweep that still shows the trend and the crossover).
BENCH_NRH_VALUES = (1024, 128, 20)

#: On-disk result cache shared by every simulation benchmark.
BENCH_CACHE_DIR = os.environ.get(
    "REPRO_CACHE_DIR",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".repro-cache"),
)


@pytest.fixture(scope="session")
def sweep_engine():
    """One engine (and one persistent result cache) for the whole session."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.sweep import SweepEngine

    # workers=None defers to the engine's REPRO_SWEEP_WORKERS env var.
    return SweepEngine(cache=ResultCache(BENCH_CACHE_DIR), workers=None)


def run_once(benchmark, function: Callable, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_figure(title: str, rows: Sequence[dict], columns: Sequence[str] | None = None) -> None:
    """Print a reproduced figure/table in a uniform format."""
    from repro.experiments.figures import format_rows

    print(f"\n=== {title} ===")
    print(format_rows(rows, columns))


def print_cache_stats(engine) -> None:
    """Print the shared engine's cache statistics below a figure."""
    print(
        f"--- {engine.cache.summary()}; {engine.executed_jobs} jobs simulated "
        f"this session (workers={engine.workers}) ---"
    )
