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
* :class:`SweepEngine` -- executes jobs serially, across worker processes
  (``concurrent.futures.ProcessPoolExecutor``), or through the in-process
  batch-vectorized engine (:mod:`repro.experiments.batch`), and memoises
  every result in a :class:`~repro.experiments.cache.ResultCache`.

Beyond the Cartesian sweep, :func:`attack_job` builds the §11 performance
attack runs and :func:`attack_search_job` builds the red-team probes of
:mod:`repro.attacks` (a synthesised attack pattern simulated under a
ground-truth disturbance oracle).

Determinism: a job's traces are regenerated inside the worker from
``(applications, accesses_per_core, seed, organization)``, and every random
decision in the simulator is seeded from the job itself, so the same spec
produces byte-identical results regardless of worker count or execution
order.
"""

from __future__ import annotations

import atexit
import dataclasses
import os
import threading
import time
import weakref
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.oracle import DisturbanceOracle
from repro.attacks.patterns import AttackSpec, performance_attack_trace
from repro.core.factory import MECHANISM_NAMES
from repro.cpu.trace import Trace
from repro.experiments.cache import ResultCache, config_payload, job_key
from repro.system.config import SystemConfig, paper_system_config
from repro.system.metrics import SimulationResult
from repro.system.simulator import simulate
from repro.workloads.mixes import build_mix_traces

#: Environment variable read for the default worker count (0/1 = serial).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Target number of shards per worker: more shards than workers is what
#: makes the pool self-balancing (an idle worker steals the next shard from
#: the shared queue), while sharding at all amortises pickling and process
#: dispatch for very cheap jobs.
SHARDS_PER_WORKER = 4


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
#: ``shard`` / ``report``).  Callbacks run on the engine's calling thread
#: and must not raise.
ProgressFn = Callable[[Dict[str, object]], None]


class CancelToken:
    """Cooperative cancellation flag, safe to share across threads.

    The long-running consumer (:meth:`SweepEngine.run_jobs`) polls the
    token between jobs / shard completions; any thread may :meth:`cancel`
    it.  Cancellation is cooperative -- a simulation that is already
    executing runs to completion and its result still lands in the cache,
    so cancelled work is never wasted on resubmission.
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
            f"sweep cancelled after {len(report.shards)} unit(s) of work"
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
        seed: base seed for trace generation (each core uses ``seed + slot``).
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


def build_job_traces(job: SimJob) -> List[Trace]:
    """Regenerate the per-core traces of a job (deterministic)."""
    traces: List[Trace] = []
    if job.attack_accesses:
        traces.append(
            performance_attack_trace(
                num_accesses=job.attack_accesses,
                organization=job.config.organization,
                seed=job.seed,
            )
        )
    if job.attack is not None:
        traces.append(job.attack.compile(organization=job.config.organization))
    if job.applications:
        traces.extend(
            build_mix_traces(
                job.applications,
                accesses_per_core=job.accesses_per_core,
                organization=job.config.organization,
                seed=job.seed,
            )
        )
    return traces


def execute_job(job: SimJob) -> SimulationResult:
    """Run one job to completion (also the worker-process entry point)."""
    oracle = None
    if job.attack is not None:
        oracle = DisturbanceOracle(
            nrh=job.config.nrh,
            blast_radius=job.config.blast_radius,
            num_channels=job.config.organization.channels,
        )
    return simulate(
        job.config,
        build_job_traces(job),
        workload_name=job.workload_name,
        oracle=oracle,
    )


# --------------------------------------------------------------------------- #
# Cost model, shards and the worker entry point
# --------------------------------------------------------------------------- #

#: Relative per-access weight of each mechanism family, measured on the
#: bench_hotpath reference set (PRAC-timing mechanisms simulate more cycles
#: per access; PARA/PRFM serve extra maintenance traffic).  The estimate
#: only needs to *rank* jobs so that long ones are dispatched first.
_MECHANISM_COST = {
    "None": 1.0,
    "Chronus": 1.05,
    "Chronus-PB": 1.05,
    "Graphene": 1.05,
    "Hydra": 1.1,
    "ABACuS": 1.05,
    "PARA": 1.25,
    "PRFM": 1.2,
    "PRAC-1": 1.15,
    "PRAC-2": 1.15,
    "PRAC-4": 1.15,
    "PRAC+PRFM": 1.3,
}


def estimate_job_cost(job: SimJob) -> float:
    """Relative wall-clock estimate of one job (unitless).

    Dominated by the total access count across cores; attack-search probes
    weigh extra because the compiled patterns hammer the row buffer (few
    hits, many conflicts) and run under a disturbance oracle.
    """
    accesses = job.accesses_per_core * max(1, len(job.applications))
    if job.attack_accesses:
        accesses += job.attack_accesses
    cost = float(max(1, accesses))
    if job.attack is not None:
        cost *= 4.0
    cost *= _MECHANISM_COST.get(job.config.mechanism, 1.1)
    cost *= job.config.organization.channels ** 0.5
    return cost


def build_shards(jobs: Sequence[SimJob], workers: int) -> List[List[SimJob]]:
    """Split ``jobs`` into cost-balanced shards, most expensive first.

    Longest-processing-time order: jobs are sorted by estimated cost
    descending (key as a deterministic tie-break) and packed greedily into
    shards of roughly ``total / (workers * SHARDS_PER_WORKER)`` cost.  Any
    job at least that expensive gets a shard of its own, so a long
    attack-search probe can never straggle behind a batch of cheap
    baselines -- idle workers steal the remaining shards from the pool's
    shared queue.
    """
    if not jobs:
        return []
    # Decorate once: the estimate is pure, so compute it one time per job.
    costed = sorted(
        ((estimate_job_cost(job), job) for job in jobs),
        key=lambda pair: (-pair[0], pair[1].key),
    )
    total = sum(cost for cost, _ in costed)
    target = total / max(1, workers * SHARDS_PER_WORKER)
    shards: List[List[SimJob]] = []
    current: List[SimJob] = []
    current_cost = 0.0
    for cost, job in costed:
        if current and current_cost + cost > target:
            shards.append(current)
            current = []
            current_cost = 0.0
        current.append(job)
        current_cost += cost
    if current:
        shards.append(current)
    return shards


def execute_shard(
    jobs: Sequence[SimJob], cache_dir: Optional[str]
) -> Tuple[float, List[SimulationResult]]:
    """Worker-process entry point: run a shard, streaming results to disk.

    Each finished result is written straight into the sharded per-key cache
    from the worker (atomic per-entry files, so N workers never serialize
    on a shared store); the parent only absorbs the returned objects into
    its memory layer.  Returns ``(elapsed_seconds, results)`` in job order.
    """
    start = time.perf_counter()
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: List[SimulationResult] = []
    for job in jobs:
        result = execute_job(job)
        if cache is not None:
            cache.put(job.key, result, job.cache_payload())
        results.append(result)
    return time.perf_counter() - start, results


@dataclass(frozen=True)
class ShardReport:
    """Timing record of one executed shard."""

    shard: int
    jobs: int
    estimated_cost: float
    seconds: float


@dataclass
class RunReport:
    """What one :meth:`SweepEngine.run_jobs` call actually did."""

    total_jobs: int = 0
    cached_jobs: int = 0
    executed_jobs: int = 0
    workers: int = 0
    batch: bool = False
    wall_seconds: float = 0.0
    shards: List[ShardReport] = field(default_factory=list)

    @property
    def engine_mode(self) -> str:
        """Which execution mode ran the missing jobs."""
        if self.executed_jobs == 0:
            return "cached"
        if self.batch:
            return "batch"
        return "pool" if self.workers >= 2 else "serial"

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this run's jobs served from the cache."""
        if self.total_jobs == 0:
            return 0.0
        return self.cached_jobs / self.total_jobs

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable report.

        The one serialization the service streams over WebSocket, the CLI
        writes with ``--report-json`` and the benchmarks record -- so every
        consumer agrees on field names.
        """
        return {
            "total_jobs": self.total_jobs,
            "cached_jobs": self.cached_jobs,
            "executed_jobs": self.executed_jobs,
            "workers": self.workers,
            "engine": self.engine_mode,
            "batch": self.batch,
            "wall_seconds": self.wall_seconds,
            "cache_hit_rate": self.cache_hit_rate,
            "shards": [dataclasses.asdict(shard) for shard in self.shards],
        }

    def summary_lines(self) -> List[str]:
        """Human-readable per-shard timing block (CLI output)."""
        engine = "engine=batch" if self.batch else f"workers={self.workers}"
        label = "batch group" if self.batch else "shard"
        lines = [
            f"run: {self.total_jobs} jobs ({self.cached_jobs} cached, "
            f"{self.executed_jobs} executed, {engine}) "
            f"in {self.wall_seconds:.2f}s"
        ]
        for report in self.shards:
            lines.append(
                f"  {label} {report.shard:>3}: {report.jobs:>3} job(s)  "
                f"{report.seconds:7.2f}s  (est. cost {report.estimated_cost:,.0f})"
            )
        return lines


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
    include_alone: bool = True
    include_baselines: bool = True

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
        base = self.resolved_base_config()
        return [
            mechanism_job(base, mix, mechanism, nrh, self.accesses_per_core, self.seed)
            for mechanism in self.mechanisms
            for nrh in self.nrh_values
            for mix in self.mixes
        ]

    def expand(self) -> List[SimJob]:
        """All jobs of the sweep, deduplicated by content key.

        Alone and baseline runs come first so that, under parallel
        execution, the normalisation points are available as early as
        possible.
        """
        jobs: List[SimJob] = []
        if self.include_alone:
            jobs.extend(self.alone_jobs())
        if self.include_baselines:
            jobs.extend(self.baseline_jobs())
        jobs.extend(self.mechanism_jobs())
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
    engine many times).  Missing jobs are packed into cost-estimated shards
    dispatched longest-first, and since several shards exist per worker the
    pool self-balances: a worker finishing a cheap shard steals the next one
    instead of idling behind a long attack-search job.  Workers stream every
    finished result into the on-disk cache themselves (atomic per-key
    files), so result persistence never serialises on the parent.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        batch: bool = False,
    ) -> None:
        """Create an engine.

        Args:
            cache: result cache; a fresh memory-only cache when omitted.
            workers: worker-process count; ``None`` reads the
                ``REPRO_SWEEP_WORKERS`` environment variable (serial when
                unset), and values below 2 execute serially in-process.
            batch: execute missing jobs through the in-process
                batch-vectorized engine (:mod:`repro.experiments.batch`)
                instead of the serial/pooled scalar engine.  Results are
                byte-identical either way; batch mode wins on single-CPU
                machines, where process workers only add overhead.
        """
        self.cache = cache if cache is not None else ResultCache()
        self.workers = default_workers() if workers is None else workers
        self.batch = batch
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
    def run_job(self, job: SimJob) -> SimulationResult:
        """Run (or fetch) a single job."""
        result = self.cache.get(job.key)
        if result is None:
            result = execute_job(job)
            self.executed_jobs += 1
            self.cache.put(job.key, result, job.cache_payload())
        return result

    def run_jobs(
        self,
        jobs: Sequence[SimJob],
        batch: Optional[bool] = None,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Dict[str, SimulationResult]:
        """Run a batch of jobs, returning ``{job.key: result}``.

        Cached jobs are served immediately; the remainder executes in one
        of three interchangeable modes -- serially, across the persistent
        worker pool (cost-balanced shards, longest first), or through the
        in-process batch-vectorized engine (``batch``; defaults to the
        engine's ``batch`` setting).  The result mapping is byte-identical
        and independent of execution order, worker count and mode.

        ``progress`` receives JSON-serialisable event dicts as the run
        advances: one ``plan`` event up front (totals, cache hits, mode),
        a ``job`` event per job executed in-process (serial/batch modes), a
        ``shard`` event per completed unit of work, and a final ``report``
        event mirroring :meth:`RunReport.as_dict`.  ``cancel`` is polled
        between jobs / shard completions; when it fires the engine raises
        :class:`SweepCancelled` (carrying the partial report) -- every
        result finished up to that point is already in the cache, so a
        resubmission resumes instead of recomputing.
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
        report = RunReport(
            total_jobs=len(unique),
            cached_jobs=len(unique) - len(missing),
            workers=self.workers,
        )
        use_batch = self.batch if batch is None else batch
        if progress is not None:
            mode = "cached"
            if missing:
                mode = "batch" if use_batch else (
                    "pool" if self.workers >= 2 and len(missing) > 1 else "serial"
                )
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
        if missing:
            report.batch = use_batch
            self._check_cancel(cancel, report)
            if use_batch:
                self._run_batch(missing, results, report, progress, cancel)
            elif self.workers >= 2 and len(missing) > 1:
                self._run_sharded(missing, results, report, progress, cancel)
            else:
                self._run_serial(missing, results, report, progress, cancel)
            report.executed_jobs = len(missing)
        report.wall_seconds = time.perf_counter() - start
        self.last_run_report = report
        if progress is not None:
            progress({"event": "report", "report": report.as_dict()})
        return results

    @staticmethod
    def _check_cancel(cancel: Optional[CancelToken], report: RunReport) -> None:
        if cancel is not None and cancel.cancelled:
            raise SweepCancelled(report)

    @staticmethod
    def _emit_job(
        progress: Optional[ProgressFn],
        job: SimJob,
        seconds: float,
        done: int,
        missing: int,
    ) -> None:
        if progress is None:
            return
        progress(
            {
                "event": "job",
                "key": job.key,
                "label": job.label,
                "mechanism": job.config.mechanism,
                "nrh": job.config.nrh,
                "seconds": seconds,
                "done_jobs": done,
                "missing_jobs": missing,
            }
        )

    @staticmethod
    def _emit_shard(
        progress: Optional[ProgressFn],
        shard: ShardReport,
        done: int,
        missing: int,
    ) -> None:
        if progress is None:
            return
        event = {"event": "shard", "done_jobs": done, "missing_jobs": missing}
        event.update(dataclasses.asdict(shard))
        progress(event)

    def _run_serial(
        self,
        missing: List[SimJob],
        results: Dict[str, SimulationResult],
        report: RunReport,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        shard_start = time.perf_counter()
        done = 0
        for job in missing:
            self._check_cancel(cancel, report)
            job_start = time.perf_counter()
            result = execute_job(job)
            self.executed_jobs += 1
            self.cache.put(job.key, result, job.cache_payload())
            results[job.key] = result
            done += 1
            self._emit_job(
                progress, job, time.perf_counter() - job_start, done, len(missing)
            )
        shard = ShardReport(
            shard=0,
            jobs=len(missing),
            estimated_cost=sum(estimate_job_cost(job) for job in missing),
            seconds=time.perf_counter() - shard_start,
        )
        report.shards.append(shard)
        self._emit_shard(progress, shard, done, len(missing))

    def _run_batch(
        self,
        missing: List[SimJob],
        results: Dict[str, SimulationResult],
        report: RunReport,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        """Execute missing jobs through the batch-vectorized engine.

        Jobs are grouped by shared trace/topology (one report shard per
        batch group), each group runs on one set of precomputed trace
        arrays and pooled buffers.
        """
        # Imported here: repro.experiments.batch imports this module.
        from repro.experiments.batch import plan_batches

        report.batch = True
        done_jobs = 0
        for index, group in enumerate(plan_batches(missing)):
            self._check_cancel(cancel, report)
            group_start = time.perf_counter()
            for job, result in group.execute():
                self.executed_jobs += 1
                self.cache.put(job.key, result, job.cache_payload())
                results[job.key] = result
                done_jobs += 1
                self._emit_job(progress, job, 0.0, done_jobs, len(missing))
                self._check_cancel(cancel, report)
            shard = ShardReport(
                shard=index,
                jobs=len(group.jobs),
                estimated_cost=sum(
                    estimate_job_cost(job) for job in group.jobs
                ),
                seconds=time.perf_counter() - group_start,
            )
            report.shards.append(shard)
            self._emit_shard(progress, shard, done_jobs, len(missing))

    def _run_sharded(
        self,
        missing: List[SimJob],
        results: Dict[str, SimulationResult],
        report: RunReport,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> None:
        shards = build_shards(missing, self.workers)
        pool = self._ensure_pool()
        cache_dir = self.cache.directory
        pending = {
            pool.submit(execute_shard, shard, cache_dir): (index, shard)
            for index, shard in enumerate(shards)
        }
        stream_to_disk = cache_dir is not None
        done_jobs = 0
        while pending:
            if cancel is not None and cancel.cancelled:
                # Cooperative: shards that never started are dropped; shards
                # already executing run on in the workers and stream their
                # results to the on-disk cache, so nothing computed is lost.
                for future in pending:
                    future.cancel()
                raise SweepCancelled(report)
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                index, shard = pending.pop(future)
                elapsed, executed = future.result()
                for job, result in zip(shard, executed):
                    self.executed_jobs += 1
                    if stream_to_disk:
                        # The worker already wrote the disk entry.
                        self.cache.absorb(job.key, result)
                    else:
                        self.cache.put(job.key, result, job.cache_payload())
                    results[job.key] = result
                done_jobs += len(shard)
                shard_report = ShardReport(
                    shard=index,
                    jobs=len(shard),
                    estimated_cost=sum(
                        estimate_job_cost(job) for job in shard
                    ),
                    seconds=elapsed,
                )
                report.shards.append(shard_report)
                self._emit_shard(progress, shard_report, done_jobs, len(missing))

    def run(
        self,
        spec: SweepSpec,
        progress: Optional[ProgressFn] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Dict[str, SimulationResult]:
        """Expand and run a whole sweep."""
        return self.run_jobs(spec.expand(), progress=progress, cancel=cancel)
