"""Declarative sweep engine: expand, execute (in parallel), and memoise.

The paper's evaluation is a Cartesian sweep -- (workload mix x mechanism x
RowHammer threshold) -- plus the baseline runs the weighted-speedup metric
needs.  This module turns such a sweep into data:

* :class:`SimJob` -- one self-contained simulation: a fully resolved
  :class:`~repro.system.config.SystemConfig`, the applications of the mix,
  the per-core access budget and the seed.  Jobs are immutable, picklable
  and content-addressed (:attr:`SimJob.key`), so they can be shipped to
  worker processes and memoised on disk.
* :class:`SweepSpec` -- the declarative description of a sweep
  (mechanisms, N_RH values, mixes, budget, seed, base config) that
  :meth:`~SweepSpec.expand`\\ s into the set of independent jobs, including
  the per-application *alone* runs and per-mix no-mitigation *baseline*
  runs shared by every sweep point.
* :class:`SweepEngine` -- executes jobs serially or across worker processes
  (``concurrent.futures.ProcessPoolExecutor``) and memoises every result in
  a :class:`~repro.experiments.cache.ResultCache`.

Beyond the Cartesian sweep, :func:`attack_job` builds the §11 performance
attack runs and :func:`attack_search_job` builds the red-team probes of
:mod:`repro.attacks` (a synthesised attack pattern simulated under a
ground-truth disturbance oracle).

Determinism: a job's traces are regenerated inside the worker from
``(applications, accesses_per_core, seed, organization)`` (and the attack
fields), once per process for all the jobs that share them
(:func:`trace_set`), and every random decision in the simulator is seeded
from the job itself, so the same spec produces byte-identical results
regardless of worker count or execution order.
"""

from __future__ import annotations

import atexit
import functools
import os
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.attacks.oracle import DisturbanceOracle
from repro.attacks.patterns import AttackSpec, performance_attack_trace
from repro.core.factory import MECHANISM_NAMES
from repro.cpu.trace import Trace
from repro.dram.organization import DramOrganization
from repro.experiments.cache import ResultCache, config_payload, job_key
from repro.system.config import SystemConfig, paper_system_config
from repro.system.metrics import SimulationResult
from repro.system.simulator import simulate
from repro.workloads.mixes import build_mix_traces

#: Environment variable read for the default worker count (0/1 = serial).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def auto_workers() -> int:
    """A sensible parallel worker count for this machine (capped at 8)."""
    return max(1, min(8, os.cpu_count() or 1))


def default_workers(auto: bool = False) -> int:
    """Worker-process count used when none is given explicitly.

    ``$REPRO_SWEEP_WORKERS`` always wins.  Without it, the default is
    serial (0) for programmatic :class:`SweepEngine` construction -- unit
    tests and library users must opt in to multiprocessing -- while the CLI
    passes ``auto=True`` to default to :func:`auto_workers`.

    An unparsable ``$REPRO_SWEEP_WORKERS`` raises :class:`ValueError`
    naming the offending text (it used to silently degrade to serial,
    hiding typos like ``REPRO_SWEEP_WORKERS=eight``); negative values are
    clamped to 0 (serial), matching the engine's "below 2 means serial"
    contract.
    """
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer worker count, "
                f"got {env!r}"
            ) from None
        return max(0, workers)
    return auto_workers() if auto else 0


# --------------------------------------------------------------------------- #
# Cooperative cancellation and progress streaming
# --------------------------------------------------------------------------- #

#: Progress callback: receives one JSON-serialisable event dict per
#: milestone of a :meth:`SweepEngine.run_jobs` call (``plan`` / ``job`` /
#: ``report``).  Callbacks run on the engine's calling thread and must not
#: raise.
ProgressFn = Callable[[Dict[str, object]], None]


class CancelToken:
    """Cooperative cancellation flag, safe to share across threads.

    The long-running consumer (:meth:`SweepEngine.run_jobs`) polls the
    token between simulations, serial or pooled; any thread may
    :meth:`cancel` it.  Cancellation is cooperative -- a simulation that is
    already executing runs to completion and its result still lands in the
    on-disk cache, so cancelled work is never wasted on resubmission.  In
    pool mode every job the executor has not yet handed to a worker is
    dropped; only the jobs already handed over (one per worker, plus the
    one call the executor queues ahead) still run.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent, thread-safe)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class SweepCancelled(RuntimeError):
    """Raised by :meth:`SweepEngine.run_jobs` when its token fires.

    ``report`` carries the :class:`RunReport` of the work completed before
    the cancellation point (every finished result is already cached).
    """

    def __init__(self, report: "RunReport") -> None:
        super().__init__(
            f"sweep cancelled after {report.executed_jobs} executed job(s)"
        )
        self.report = report


class SweepWorkerLost(RuntimeError):
    """Raised by :meth:`SweepEngine.run_jobs` when a pool worker dies mid-run.

    A dead worker breaks the whole ``ProcessPoolExecutor``, so the engine
    drops its pool and the next run builds a fresh one.  ``report`` carries
    the :class:`RunReport` of the work booked before the loss; every result
    a worker finished is already cached, so a rerun resumes.
    """

    def __init__(self, report: "RunReport") -> None:
        super().__init__(
            f"a sweep worker died after {report.executed_jobs} executed "
            f"job(s); the pool was dropped and the next run starts a new one"
        )
        self.report = report


# --------------------------------------------------------------------------- #
# Jobs
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SimJob:
    """One independent simulation of a sweep.

    Attributes:
        config: fully resolved system configuration (mechanism, N_RH and
            ``num_cores`` already applied).
        applications: application name per benign core, in core order.
        accesses_per_core: memory accesses generated per benign core.
        seed: the job's only seed: trace generation (each core uses
            ``seed + slot``) and the mechanisms' RNGs (PARA; channel ``i``
            uses ``seed + i``).
        workload_name: label recorded in the result; *not* part of the cache
            key, so cosmetically different names share one simulation.
        attack_accesses: when positive, core 0 runs the §11 memory
            performance attack trace with this many accesses and the benign
            applications occupy the remaining cores.
        attack: when set (an :class:`~repro.attacks.patterns.AttackSpec`),
            core 0 runs the compiled attack pattern and the simulation is
            observed by a ground-truth disturbance oracle whose ``oracle_*``
            statistics land in the result's ``mitigation_stats`` -- the job
            kind behind ``python -m repro attack search``.
    """

    config: SystemConfig
    applications: Tuple[str, ...]
    accesses_per_core: int
    seed: int = 0
    workload_name: str = ""
    attack_accesses: int = 0
    attack: Optional[AttackSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "applications", tuple(self.applications))
        if self.attack_accesses and self.attack is not None:
            raise ValueError("attack_accesses and attack are mutually exclusive")
        has_attacker = bool(self.attack_accesses) or self.attack is not None
        expected_cores = len(self.applications) + (1 if has_attacker else 0)
        if expected_cores != self.config.num_cores:
            raise ValueError(
                f"job provides {expected_cores} traces but the config has "
                f"{self.config.num_cores} cores"
            )
        if self.accesses_per_core <= 0:
            raise ValueError("accesses_per_core must be positive")

    def cache_payload(self) -> Dict[str, object]:
        """The job description the cache key is derived from."""
        payload: Dict[str, object] = {
            "config": config_payload(self.config),
            "applications": list(self.applications),
            "accesses_per_core": self.accesses_per_core,
            "seed": self.seed,
            "attack_accesses": self.attack_accesses,
        }
        # Only attack-search jobs carry the spec, so the keys of every
        # pre-existing job kind (and their on-disk cache entries) are stable.
        if self.attack is not None:
            payload["attack"] = self.attack.as_payload()
        return payload

    @property
    def key(self) -> str:
        """Content hash identifying this simulation."""
        return job_key(self.cache_payload())

    @property
    def label(self) -> str:
        """Short human-readable description (CLI / dry-run listings)."""
        name = self.workload_name or "+".join(self.applications)
        return f"{name} [{self.config.mechanism}@{self.config.nrh}]"


def alone_job(
    base_config: SystemConfig,
    application: str,
    accesses_per_core: int,
    seed: int = 0,
) -> SimJob:
    """The single-core, no-mitigation run that yields ``IPC_alone``."""
    config = base_config.with_overrides(
        num_cores=1, mechanism="None", attacker_cores=()
    )
    return SimJob(
        config=config,
        applications=(application,),
        accesses_per_core=accesses_per_core,
        seed=seed,
        workload_name=f"{application}-alone",
    )


def baseline_job(
    base_config: SystemConfig,
    applications: Sequence[str],
    accesses_per_core: int,
    seed: int = 0,
) -> SimJob:
    """The no-mitigation run of a mix (the normalisation point)."""
    applications = tuple(applications)
    config = base_config.with_overrides(
        num_cores=len(applications), mechanism="None"
    )
    return SimJob(
        config=config,
        applications=applications,
        accesses_per_core=accesses_per_core,
        seed=seed,
        workload_name="+".join(applications),
    )


def mechanism_job(
    base_config: SystemConfig,
    applications: Sequence[str],
    mechanism: str,
    nrh: int,
    accesses_per_core: int,
    seed: int = 0,
    workload_name: Optional[str] = None,
) -> SimJob:
    """A mix simulated under one (mechanism, N_RH) sweep point."""
    applications = tuple(applications)
    config = base_config.with_overrides(
        num_cores=len(applications), mechanism=mechanism, nrh=nrh
    )
    return SimJob(
        config=config,
        applications=applications,
        accesses_per_core=accesses_per_core,
        seed=seed,
        workload_name=workload_name or "+".join(applications),
    )


def attack_job(
    base_config: SystemConfig,
    benign_applications: Sequence[str],
    mechanism: str,
    nrh: int,
    accesses_per_core: int,
    attack_accesses: int,
    seed: int = 0,
    workload_name: Optional[str] = None,
) -> SimJob:
    """The §11 performance attack: one attacker core + benign cores."""
    benign_applications = tuple(benign_applications)
    config = base_config.with_overrides(
        num_cores=len(benign_applications) + 1,
        mechanism=mechanism,
        nrh=nrh,
        attacker_cores=(0,),
    )
    return SimJob(
        config=config,
        applications=benign_applications,
        accesses_per_core=accesses_per_core,
        seed=seed,
        workload_name=workload_name or "attack+" + "+".join(benign_applications),
        attack_accesses=attack_accesses,
    )


def attack_search_job(
    base_config: SystemConfig,
    mechanism: str,
    nrh: int,
    attack: AttackSpec,
    benign_applications: Sequence[str] = (),
    accesses_per_core: int = 1,
    seed: int = 0,
    workload_name: Optional[str] = None,
) -> SimJob:
    """A red-team probe: one attack pattern against one (mechanism, N_RH).

    Core 0 runs the compiled attack trace (bypassing the LLC, like the §11
    attacker); optional benign applications occupy the remaining cores.  The
    executed simulation attaches a
    :class:`~repro.attacks.oracle.DisturbanceOracle`, so the cached result
    reports ground-truth ``oracle_*`` disturbance statistics.
    """
    benign_applications = tuple(benign_applications)
    config = base_config.with_overrides(
        num_cores=len(benign_applications) + 1,
        mechanism=mechanism,
        nrh=nrh,
        attacker_cores=(0,),
    )
    return SimJob(
        config=config,
        applications=benign_applications,
        accesses_per_core=accesses_per_core,
        seed=seed,
        workload_name=workload_name or f"{attack.label} vs {mechanism}@{nrh}",
        attack=attack,
    )


#: Trace sets kept by the per-process memo of :func:`build_job_traces`.  The
#: benches cycle through at most four mixes, and a four-core set at 1,500
#: accesses per core holds about 0.6 MB.  Jobs expand mix by mix, so a sweep
#: over more mixes than this still shares each mix's set.
TRACE_MEMO_SIZE = 8

#: Trace entries (over every core) above which :func:`build_job_traces`
#: builds a job's set without the memo.  An entry holds about 99 bytes, so a
#: full memo stays under 80 MB; a four-core set at the service's largest
#: budget (200,000 accesses per core) holds 79 MB by itself.  Every job of
#: the benchmark, the benches and the examples holds under 10,000 entries at
#: their default budgets.
TRACE_MEMO_MAX_ENTRIES = 100_000


def build_job_traces(job: SimJob) -> List[Trace]:
    """The per-core traces of a job (deterministic).

    Jobs that differ only in mechanism, N_RH or name share one trace set,
    built once per process by :func:`trace_set`; the list is fresh, the
    (immutable) :class:`Trace` objects are shared.  A set of more than
    :data:`TRACE_MEMO_MAX_ENTRIES` entries is built without the memo.
    """
    organization = job.config.organization
    entries = job.attack_accesses + job.accesses_per_core * len(job.applications)
    if job.attack is not None:
        entries += job.attack.trace_length(organization)
    build = trace_set if entries <= TRACE_MEMO_MAX_ENTRIES else trace_set.__wrapped__
    return list(
        build(
            job.attack_accesses,
            job.attack,
            job.applications,
            job.accesses_per_core,
            organization,
            job.seed,
        )
    )


@functools.lru_cache(maxsize=TRACE_MEMO_SIZE)
def trace_set(
    attack_accesses: int,
    attack: Optional[AttackSpec],
    applications: Tuple[str, ...],
    accesses_per_core: int,
    organization: DramOrganization,
    seed: int,
) -> Tuple[Trace, ...]:
    """The per-core traces built from six job fields, memoized per process:
    the §11 attacker or the compiled attack first, then the mix."""
    traces: List[Trace] = []
    if attack_accesses:
        traces.append(
            performance_attack_trace(
                num_accesses=attack_accesses,
                organization=organization,
                seed=seed,
            )
        )
    if attack is not None:
        traces.append(attack.compile(organization=organization))
    if applications:
        traces.extend(
            build_mix_traces(
                applications,
                accesses_per_core=accesses_per_core,
                organization=organization,
                seed=seed,
            )
        )
    return tuple(traces)


def execute_job(job: SimJob) -> SimulationResult:
    """Run one job to completion."""
    oracle = None
    if job.attack is not None:
        oracle = DisturbanceOracle(
            nrh=job.config.nrh,
            num_channels=job.config.organization.channels,
        )
    return simulate(
        job.config,
        build_job_traces(job),
        workload_name=job.workload_name,
        oracle=oracle,
        seed=job.seed,
    )


# --------------------------------------------------------------------------- #
# The worker entry point and the run report
# --------------------------------------------------------------------------- #

def execute_timed(
    job: SimJob, cache_dir: Optional[str] = None
) -> Tuple[float, SimulationResult]:
    """Run one job, returning ``(seconds, result)`` with the simulation timed.

    Also the pool's worker entry point: given ``cache_dir``, the worker
    writes the job's entry straight into the sharded per-key cache (atomic
    per-entry files, so N workers never serialise on a shared store) and
    the parent only absorbs the returned result into its memory layer.
    """
    start = time.perf_counter()
    result = execute_job(job)
    seconds = time.perf_counter() - start
    if cache_dir is not None:
        ResultCache(cache_dir).put(job.key, result, job.cache_payload())
    return seconds, result


@dataclass
class RunReport:
    """What one :meth:`SweepEngine.run_jobs` call actually did."""

    total_jobs: int = 0
    cached_jobs: int = 0
    #: Jobs executed so far, counted one job at a time in both modes.
    executed_jobs: int = 0
    workers: int = 0
    #: How the missing jobs run: ``cached`` (none missing), ``serial`` or
    #: ``pool`` -- the ``mode`` of the run's ``plan`` event.
    mode: str = "cached"
    wall_seconds: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this run's jobs served from the cache."""
        if self.total_jobs == 0:
            return 0.0
        return self.cached_jobs / self.total_jobs

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable report.

        The one serialization the service streams to watchers, the CLI
        writes with ``--report-json`` and the benchmarks record -- so every
        consumer agrees on field names.
        """
        return {
            "total_jobs": self.total_jobs,
            "cached_jobs": self.cached_jobs,
            "executed_jobs": self.executed_jobs,
            "workers": self.workers,
            "engine": self.mode,
            "wall_seconds": self.wall_seconds,
            "cache_hit_rate": self.cache_hit_rate,
        }

    def summary_line(self) -> str:
        """Human-readable one-line summary (CLI output)."""
        return (
            f"run: {self.total_jobs} jobs ({self.cached_jobs} cached, "
            f"{self.executed_jobs} executed, workers={self.workers}, "
            f"engine={self.mode}) in {self.wall_seconds:.2f}s"
        )


# --------------------------------------------------------------------------- #
# Sweep specification
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a (mechanism x N_RH x mix) sweep."""

    mechanisms: Tuple[str, ...]
    nrh_values: Tuple[int, ...]
    mixes: Tuple[Tuple[str, ...], ...]
    accesses_per_core: int = 4000
    seed: int = 0
    base_config: Optional[SystemConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        object.__setattr__(self, "nrh_values", tuple(self.nrh_values))
        object.__setattr__(
            self, "mixes", tuple(tuple(mix) for mix in self.mixes)
        )
        for mechanism in self.mechanisms:
            if mechanism not in MECHANISM_NAMES:
                raise ValueError(
                    f"unknown mechanism {mechanism!r}; expected one of {MECHANISM_NAMES}"
                )
        if any(nrh <= 0 for nrh in self.nrh_values):
            raise ValueError("every N_RH value must be positive")
        if any(not mix for mix in self.mixes):
            raise ValueError("every mix needs at least one application")
        if self.accesses_per_core <= 0:
            raise ValueError("accesses_per_core must be positive")

    def resolved_base_config(self) -> SystemConfig:
        return self.base_config if self.base_config is not None else paper_system_config()

    @property
    def applications(self) -> Tuple[str, ...]:
        """Distinct applications across all mixes, in first-seen order."""
        seen: Dict[str, None] = {}
        for mix in self.mixes:
            for application in mix:
                seen.setdefault(application, None)
        return tuple(seen)

    def num_points(self) -> int:
        """Number of (mechanism, N_RH, mix) sweep points."""
        return len(self.mechanisms) * len(self.nrh_values) * len(self.mixes)

    def alone_jobs(self) -> List[SimJob]:
        base = self.resolved_base_config()
        return [
            alone_job(base, application, self.accesses_per_core, self.seed)
            for application in self.applications
        ]

    def baseline_jobs(self) -> List[SimJob]:
        base = self.resolved_base_config()
        return [
            baseline_job(base, mix, self.accesses_per_core, self.seed)
            for mix in self.mixes
        ]

    def mechanism_jobs(self) -> List[SimJob]:
        """Mix-outermost, so each mix's jobs reuse one memoized trace set
        (:func:`trace_set`) however many mixes the sweep has."""
        base = self.resolved_base_config()
        return [
            mechanism_job(base, mix, mechanism, nrh, self.accesses_per_core, self.seed)
            for mix in self.mixes
            for mechanism in self.mechanisms
            for nrh in self.nrh_values
        ]

    def expand(self) -> List[SimJob]:
        """All jobs of the sweep, deduplicated by content key.

        Alone and baseline runs come first so that, under parallel
        execution, the normalisation points are available as early as
        possible.
        """
        jobs = self.alone_jobs() + self.baseline_jobs() + self.mechanism_jobs()
        unique: Dict[str, SimJob] = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        return list(unique.values())


# --------------------------------------------------------------------------- #
# Engine
# --------------------------------------------------------------------------- #

#: Engines whose persistent pool has been started.  Weak references, so an
#: engine that is garbage-collected (its ``ProcessPoolExecutor`` reaps its
#: workers on finalisation) never lingers here; the atexit hook closes the
#: survivors so an interrupted run (Ctrl-C mid-sweep, server stop) cannot
#: leak worker processes.
_LIVE_ENGINES: "weakref.WeakSet[SweepEngine]" = weakref.WeakSet()


def shutdown_live_engines() -> int:
    """Close every engine with a live pool; returns how many were closed.

    Registered with :mod:`atexit`; also callable directly (signal handlers,
    tests).  Idempotent: :meth:`SweepEngine.close` tolerates repeats.
    """
    closed = 0
    for engine in list(_LIVE_ENGINES):
        if engine._pool is not None:
            engine.close()
            closed += 1
    return closed


atexit.register(shutdown_live_engines)


class SweepEngine:
    """Executes :class:`SimJob`\\ s with memoisation and optional parallelism.

    Parallel execution keeps one **persistent** process pool alive across
    ``run()`` / ``run_jobs()`` calls (spawning workers costs ~100 ms each;
    iterative users -- the red-team bisection, figure benchmarks -- call the
    engine many times).  Each missing job is one pool task, submitted in
    the order given: an idle worker takes the next job from the pool's
    shared queue, so a long attack-search probe never holds back a batch of
    cheap baselines.  Workers write every finished result into the on-disk
    cache themselves (atomic per-key files), so result persistence never
    serialises on the parent.  Serial and pool runs book each finished job
    the same way and emit the same progress events.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
    ) -> None:
        """Create an engine.

        Args:
            cache: result cache; a fresh memory-only cache when omitted.
            workers: worker-process count; ``None`` reads the
                ``REPRO_SWEEP_WORKERS`` environment variable (serial when
                unset), and values below 2 execute serially in-process.
        """
        self.cache = cache if cache is not None else ResultCache()
        self.workers = default_workers() if workers is None else workers
        self.executed_jobs = 0
        #: Report of the most recent :meth:`run_jobs` call.
        self.last_run_report = RunReport()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_workers = 0

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """Return the persistent pool, (re)creating it on first use or
        after a worker-count change."""
        if self._pool is None or self._pool_workers != self.workers:
            self.close()
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool_workers = self.workers
            _LIVE_ENGINES.add(self)
        return self._pool

    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_workers = 0

    def __enter__(self) -> "SweepEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_jobs(
        self,
        jobs: Sequence[SimJob],
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Dict[str, SimulationResult]:
        """Run ``jobs``, returning ``{job.key: result}``.

        Cached jobs are served immediately; the remainder executes either
        serially or across the persistent worker pool, one task per job.
        The result mapping is byte-identical and independent of execution
        order, worker count and mode.

        ``progress`` receives JSON-serialisable event dicts as the run
        advances: one ``plan`` event up front (totals, cache hits, mode),
        one ``job`` event per executed job in either mode, and a final
        ``report`` event mirroring :meth:`RunReport.as_dict`.  ``cancel`` is
        polled between simulations; when it fires the engine raises
        :class:`SweepCancelled` (carrying the partial report) -- every
        result finished up to that point is already in the cache, so a
        resubmission resumes instead of recomputing.  A pool worker that
        dies mid-run raises :class:`SweepWorkerLost` the same way; one that
        died while the pool sat idle is replaced before any job is handed
        over.
        """
        start = time.perf_counter()
        unique: Dict[str, SimJob] = {}
        for job in jobs:
            unique.setdefault(job.key, job)
        results: Dict[str, SimulationResult] = {}
        missing: List[SimJob] = []
        for key, job in unique.items():
            cached = self.cache.get(key)
            if cached is not None:
                results[key] = cached
            else:
                missing.append(job)
        mode = "cached"
        if missing:
            mode = "pool" if self.workers >= 2 and len(missing) > 1 else "serial"
        report = RunReport(
            total_jobs=len(unique),
            cached_jobs=len(unique) - len(missing),
            workers=self.workers,
            mode=mode,
        )
        if progress is not None:
            progress(
                {
                    "event": "plan",
                    "total_jobs": len(unique),
                    "cached_jobs": len(unique) - len(missing),
                    "missing_jobs": len(missing),
                    "mode": mode,
                    "workers": self.workers,
                }
            )
        # A pool worker already wrote each result's disk entry.
        absorb = mode == "pool" and self.cache.directory is not None
        try:
            if missing:
                self._check_cancel(cancel, report)
                run = self._run_pool if mode == "pool" else self._run_serial
                # Both modes book every finished job the same way: count it,
                # cache it, map its result and emit one ``job`` event.
                with closing(run(missing, report, cancel)) as outcomes:
                    for job, seconds, result in outcomes:
                        self.executed_jobs += 1
                        report.executed_jobs += 1
                        if absorb:
                            self.cache.absorb(job.key, result)
                        else:
                            self.cache.put(job.key, result, job.cache_payload())
                        results[job.key] = result
                        if progress is not None:
                            progress(
                                {
                                    "event": "job",
                                    "key": job.key,
                                    "label": job.label,
                                    "mechanism": job.config.mechanism,
                                    "nrh": job.config.nrh,
                                    "seconds": seconds,
                                    "done_jobs": report.executed_jobs,
                                    "missing_jobs": len(missing),
                                }
                            )
        finally:
            # Also on a cancel: the partial report travels on the exception.
            report.wall_seconds = time.perf_counter() - start
        self.last_run_report = report
        if progress is not None:
            progress({"event": "report", "report": report.as_dict()})
        return results

    @staticmethod
    def _check_cancel(cancel: Optional[CancelToken], report: RunReport) -> None:
        if cancel is not None and cancel.cancelled:
            raise SweepCancelled(report)

    def _run_serial(
        self, missing: List[SimJob], report: RunReport, cancel: Optional[CancelToken]
    ) -> Iterator[Tuple[SimJob, float, SimulationResult]]:
        """Run ``missing`` in-process, yielding ``(job, seconds, result)``."""
        for job in missing:
            self._check_cancel(cancel, report)
            yield (job, *execute_timed(job))

    def _run_pool(
        self, missing: List[SimJob], report: RunReport, cancel: Optional[CancelToken]
    ) -> Iterator[Tuple[SimJob, float, SimulationResult]]:
        """Run ``missing`` on the pool, one task per job, yielding
        ``(job, seconds, result)`` as the jobs finish."""
        cache_dir = self.cache.directory

        def submit_all() -> Dict[Future, SimJob]:
            pool = self._ensure_pool()
            return {pool.submit(execute_timed, job, cache_dir): job for job in missing}

        try:
            pending = submit_all()
        except BrokenProcessPool:
            # A worker died while the pool sat idle between runs.  None of
            # this run's jobs was handed to it, so they go to a fresh pool.
            self.close()
            pending = submit_all()
        try:
            while pending:
                self._check_cancel(cancel, report)
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    job = pending.pop(future)
                    try:
                        seconds, result = future.result()
                    except BrokenProcessPool as error:
                        self.close()
                        raise SweepWorkerLost(report) from error
                    yield job, seconds, result
        finally:
            # On a cancel or a failed job, the jobs no worker has taken yet
            # are dropped; those already running finish in their workers
            # and, with an on-disk cache, still land there.
            for future in pending:
                future.cancel()

    def run(
        self,
        spec: SweepSpec,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Dict[str, SimulationResult]:
        """Expand and run a whole sweep, returning ``{job.key: result}``.

        :func:`repro.experiments.runner.compare` aggregates that map into
        the sweep's per-point mechanism comparisons.
        """
        return self.run_jobs(spec.expand(), progress=progress, cancel=cancel)
