"""Batch-vectorized sweep execution.

A mechanism x N_RH sweep re-simulates the *same* workload traces under many
system configurations.  The scalar engine pays the full setup cost per job:
trace decomposition into per-core dispatch arrays, per-access address
decoding, and the lazy growth of every counter store.  On a single-CPU box
the worker pool cannot hide that cost either (the committed
``BENCH_sweep_throughput.json`` records an honest 0.93x for 8 workers), so
this module attacks it in-process instead:

* **Batch grouping** (:func:`plan_batches`): jobs whose traces and memory
  topology are identical -- everything except the mitigation mechanism, its
  threshold, the PRAC timing flavour and the oracle blast radius -- share
  one :class:`TracePlan`.  A full figure sweep collapses into a handful of
  groups (one per mix / core-count), each spanning dozens of configs.
* **Shared precomputation** (:class:`TracePlan`): the per-core trace arrays
  the dispatch loop reads, a NumPy-vectorized decode of every unique trace
  line through the address mapping's shift/mask plan (feeding the router's
  decode table), and per-bank maximum-row extents that pre-size the
  mitigation counter arrays.
* **Pooled buffers**: one LLC instance, one set of per-bank counter arrays
  and one set of per-channel
  :class:`~repro.dram.timing_plane.BankArrayTiming` planes per group,
  recycled between configs (``Cache.reset``, ``release_count_buffers`` and
  the device's plane reset restore the pristine state; capacity is
  unobservable, so pooling is byte-identical to fresh allocation).

Equivalence is pinned the same way the counter backends and the
event-horizon engine are: ``tests/test_batch_equivalence.py`` asserts
byte-identical :class:`~repro.system.metrics.SimulationResult` payloads
against the scalar engine for every mechanism and channel count, plus a
Hypothesis differential over random small configs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.attacks.oracle import DisturbanceOracle
from repro.controller.address_mapping import mapping_by_name
from repro.core.counters import PerRowCounters
from repro.cpu.cache import Cache
from repro.dram.organization import DramAddress
from repro.dram.timing_plane import BankArrayTiming
from repro.experiments.sweep import SimJob, build_job_traces
from repro.system.metrics import SimulationResult
from repro.system.simulator import SystemSimulator

#: Config fields a batch group is allowed to vary in.  Everything else --
#: the organization, address mapping, LLC geometry, core parameters, the
#: applications, access budget and trace seed -- must match, because the
#: shared :class:`TracePlan` (trace arrays, decode table, counter extents)
#: depends on it.  The free fields only steer the per-config mechanism
#: build, DRAM timing flavour and the disturbance oracle.
GROUP_FREE_CONFIG_FIELDS: Tuple[str, ...] = (
    "mechanism",
    "nrh",
    "legacy_prac_timings",
    "blast_radius",
)


def batch_group_key(job: SimJob) -> str:
    """Canonical key of the batch group a job belongs to.

    Derived from the job's cache payload with the
    :data:`GROUP_FREE_CONFIG_FIELDS` removed, so two jobs share a group
    exactly when their traces and memory topology are interchangeable.
    """
    payload = job.cache_payload()
    config = dict(payload["config"])
    for name in GROUP_FREE_CONFIG_FIELDS:
        config.pop(name, None)
    payload["config"] = config
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass
class TracePlan:
    """Shared, immutable-per-group precomputation plus pooled buffers.

    Memory layout: ``core_trace_data[core]`` holds the four parallel plain
    lists the dispatch loop indexes (gap, aligned line, is-write, front-end
    cycles per gap); ``decode_cache`` maps every unique trace line address
    to its decoded ``(DramAddress, flat_bank)`` pair; ``counter_sizes``
    holds, config-major per channel, the per-flat-bank array extent
    (``max demand row + 1``) the counter stores are pre-sized with.
    """

    traces: list
    core_trace_data: List[tuple]
    decode_cache: Dict[int, tuple]
    counter_sizes: List[List[int]]
    llc_geometry: Tuple[int, int, int]
    plane_banks: int = 0
    _llc_pool: List[Cache] = field(default_factory=list)
    _count_pools: List[List[List[List[int]]]] = field(default_factory=list)
    _plane_pool: List[List[BankArrayTiming]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, job: SimJob) -> "TracePlan":
        """Precompute the shared state of a batch group from one job."""
        config = job.config
        organization = config.organization
        traces = build_job_traces(job)
        line_size = config.llc_line_size
        ipc = config.issue_width * config.clock_ratio

        core_trace_data: List[tuple] = []
        line_arrays: List[np.ndarray] = []
        for trace in traces:
            entries = trace.entries
            gaps = [entry.gap_instructions for entry in entries]
            addresses = np.fromiter(
                (entry.address for entry in entries),
                dtype=np.int64,
                count=len(entries),
            )
            lines_array = (addresses // line_size) * line_size
            line_arrays.append(lines_array)
            core_trace_data.append(
                (
                    gaps,
                    lines_array.tolist(),
                    [entry.is_write for entry in entries],
                    # Same operands as the scalar Core's per-entry division,
                    # so the IEEE-754 results (and every downstream cycle
                    # number) are bit-equal.
                    (np.asarray(gaps, dtype=np.float64) / ipc).tolist(),
                )
            )

        # Vectorized decode of every unique line through the mapping's
        # precomputed shift/mask plan (the scalar ``decode`` is the same
        # pure bit arithmetic, one address at a time).
        mapping = mapping_by_name(config.address_mapping, organization)
        unique = np.unique(np.concatenate(line_arrays))
        (
            (ch_shift, ch_mask),
            (ra_shift, ra_mask),
            (bg_shift, bg_mask),
            (ba_shift, ba_mask),
            (ro_shift, ro_mask),
            (ch_hi_shift, ch_hi_mask),
            (ch_lo_shift, ch_lo_mask),
        ) = mapping._decode_plan
        channels = (unique >> ch_shift) & ch_mask
        ranks = (unique >> ra_shift) & ra_mask
        bankgroups = (unique >> bg_shift) & bg_mask
        banks = (unique >> ba_shift) & ba_mask
        rows = (unique >> ro_shift) & ro_mask
        columns = (
            ((unique >> ch_hi_shift) & ch_hi_mask) << mapping._column_low_width
        ) | ((unique >> ch_lo_shift) & ch_lo_mask)
        flat_banks = (
            ranks * organization.bankgroups + bankgroups
        ) * organization.banks_per_group + banks

        decode_cache: Dict[int, tuple] = {}
        counter_sizes = [
            [0] * organization.total_banks for _ in range(organization.channels)
        ]
        # .tolist() everywhere: NumPy scalars must never leak into the
        # simulation (they would contaminate stats and JSON payloads).
        for address, channel, rank, bankgroup, bank, row, column, flat in zip(
            unique.tolist(),
            channels.tolist(),
            ranks.tolist(),
            bankgroups.tolist(),
            banks.tolist(),
            rows.tolist(),
            columns.tolist(),
            flat_banks.tolist(),
        ):
            decode_cache[address] = (
                DramAddress(
                    channel=channel,
                    rank=rank,
                    bankgroup=bankgroup,
                    bank=bank,
                    row=row,
                    column=column,
                ),
                flat,
            )
            sizes = counter_sizes[channel]
            if row >= sizes[flat]:
                sizes[flat] = row + 1

        return cls(
            traces=traces,
            core_trace_data=core_trace_data,
            decode_cache=decode_cache,
            counter_sizes=counter_sizes,
            llc_geometry=(
                config.llc_size_bytes,
                config.llc_associativity,
                config.llc_line_size,
            ),
            plane_banks=organization.total_banks,
            _count_pools=[[] for _ in range(organization.channels)],
        )

    # ------------------------------------------------------------------ #
    # Pooled buffers
    # ------------------------------------------------------------------ #
    def acquire_llc(self) -> Cache:
        """A pristine LLC (pooled; ``release_llc`` resets and returns it)."""
        if self._llc_pool:
            return self._llc_pool.pop()
        size_bytes, associativity, line_size = self.llc_geometry
        return Cache(
            size_bytes=size_bytes,
            associativity=associativity,
            line_size=line_size,
        )

    def release_llc(self, llc: Cache) -> None:
        llc.reset()
        self._llc_pool.append(llc)

    def acquire_planes(self, channels: int) -> List[BankArrayTiming]:
        """Per-channel timing planes, pooled across the group's configs.

        The planes are handed to :class:`~repro.system.simulator
        .SystemSimulator` pre-sized; :class:`~repro.dram.device.DramDevice`
        resets each one on adoption, so recycled register state can never
        leak between configs.
        """
        if self._plane_pool:
            planes = self._plane_pool.pop()
            if len(planes) == channels:
                return planes
        return [BankArrayTiming(self.plane_banks) for _ in range(channels)]

    def release_planes(self, planes: List[BankArrayTiming]) -> None:
        self._plane_pool.append(planes)

    def acquire_counts(self, channel: int) -> List[List[int]]:
        """All-zero per-bank count arrays sized to the group's row extents."""
        pool = self._count_pools[channel]
        if pool:
            return pool.pop()
        return [[0] * size for size in self.counter_sizes[channel]]

    def release_counts(self, channel: int, buffers: List[List[int]]) -> None:
        self._count_pools[channel].append(buffers)


def execute_job_with_plan(job: SimJob, plan: TracePlan) -> SimulationResult:
    """Run one job on the plan's shared precomputation and pooled buffers."""
    oracle = None
    if job.attack is not None:
        oracle = DisturbanceOracle(
            nrh=job.config.nrh,
            blast_radius=job.config.blast_radius,
            num_channels=job.config.organization.channels,
        )
    llc = plan.acquire_llc()
    planes = plan.acquire_planes(job.config.organization.channels)
    sim = SystemSimulator(
        job.config,
        plan.traces,
        workload_name=job.workload_name,
        oracle=oracle,
        llc=llc,
        decode_cache=plan.decode_cache,
        core_trace_data=plan.core_trace_data,
        timing_planes=planes,
    )
    # Pre-size the array-backed per-row counter stores from the decoded row
    # extents and recycle their arrays across the group's configs.  The
    # dict backend (and stores that rebuild their tables mid-run, like
    # Hydra's) simply run unpooled.
    adopted: List[Tuple[int, PerRowCounters]] = []
    for channel, setup in enumerate(sim.setups):
        for mechanism in setup.mechanisms():
            store = getattr(mechanism, "counters", None)
            if isinstance(store, PerRowCounters) and store.backend == "array":
                store.adopt_count_buffers(plan.acquire_counts(channel))
                adopted.append((channel, store))
    try:
        result = sim.run()
    finally:
        for channel, store in adopted:
            plan.release_counts(channel, store.release_count_buffers())
        plan.release_llc(llc)
        plan.release_planes(planes)
    return result


@dataclass
class BatchGroup:
    """The jobs of one batch, sharing a :class:`TracePlan`."""

    key: str
    jobs: List[SimJob]

    def execute(self) -> Iterator[Tuple[SimJob, SimulationResult]]:
        """Run the group's jobs, yielding ``(job, result)`` pairs.

        The plan is built lazily so a fully cached group costs nothing; the
        pooled buffers die with the generator.
        """
        plan = TracePlan.build(self.jobs[0])
        for job in self.jobs:
            yield job, execute_job_with_plan(job, plan)


def plan_batches(jobs: Sequence[SimJob]) -> List[BatchGroup]:
    """Group jobs by :func:`batch_group_key` (first-seen order, stable)."""
    groups: Dict[str, List[SimJob]] = {}
    for job in jobs:
        groups.setdefault(batch_group_key(job), []).append(job)
    return [BatchGroup(key=key, jobs=members) for key, members in groups.items()]


def execute_batch(jobs: Sequence[SimJob]) -> Dict[str, SimulationResult]:
    """Convenience wrapper: run ``jobs`` in batch mode, keyed by job key."""
    results: Dict[str, SimulationResult] = {}
    for group in plan_batches(jobs):
        for job, result in group.execute():
            results[job.key] = result
    return results
