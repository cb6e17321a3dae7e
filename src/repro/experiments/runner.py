"""Aggregation of a sweep's results into per-point mechanism comparisons.

The paper's evaluation figures normalise every (mechanism, N_RH) point to
two kinds of run:

1. every application alone on the baseline (no mitigation) system, which
   yields the ``IPC_alone`` values the weighted-speedup metric needs, and
2. every mix on the baseline system (the normalisation point).

A :class:`~repro.experiments.sweep.SweepSpec` expands into exactly those
jobs plus one job per (mechanism, N_RH, mix) point, and
:meth:`~repro.experiments.sweep.SweepEngine.run` returns their results as a
``{job.key: result}`` map.  :func:`compare` reads each result from that map
once; it never executes a job or looks one up in the cache::

    results = engine.run(spec)
    comparisons = compare(spec, results)

Experiments are scaled by ``accesses_per_core``: the paper runs 100 M
instructions per core on a compute cluster; the default here is small enough
for a laptop while preserving the relative overheads (see docs/EXPERIMENTS.md
for the exact budgets used for the recorded results).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.experiments.sweep import SweepSpec, mechanism_job
from repro.system.metrics import SimulationResult, normalized_weighted_speedup
from repro.workloads.mixes import WorkloadMix, workload_mixes


@dataclass
class MechanismComparison:
    """Aggregated results of one (mechanism, N_RH) sweep point."""

    mechanism: str
    nrh: int
    normalized_weighted_speedups: List[float] = field(default_factory=list)
    normalized_energies: List[float] = field(default_factory=list)
    backoffs_per_mcycle: List[float] = field(default_factory=list)
    is_secure: bool = True

    @property
    def mean_normalized_ws(self) -> float:
        values = self.normalized_weighted_speedups
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_normalized_energy(self) -> float:
        values = self.normalized_energies
        return sum(values) / len(values) if values else 0.0

    @property
    def mean_performance_overhead(self) -> float:
        """Average slowdown versus the no-mitigation baseline (0..1)."""
        return max(0.0, 1.0 - self.mean_normalized_ws)

    @property
    def max_performance_overhead(self) -> float:
        values = self.normalized_weighted_speedups
        if not values:
            return 0.0
        return max(0.0, 1.0 - min(values))


def compare(
    spec: SweepSpec, results: Mapping[str, SimulationResult]
) -> List[MechanismComparison]:
    """One comparison per (mechanism, N_RH) point of ``spec``.

    ``results`` maps each job key of ``spec.expand()`` to its result, as
    :meth:`~repro.experiments.sweep.SweepEngine.run` returns it.  Points go
    mechanism by mechanism, then by N_RH; each per-mix list follows
    ``spec.mixes``.
    """
    alone_ipcs = {
        job.applications[0]: results[job.key].core_ipcs[0]
        for job in spec.alone_jobs()
    }
    baselines = [results[job.key] for job in spec.baseline_jobs()]
    base = spec.resolved_base_config()
    comparisons: List[MechanismComparison] = []
    for mechanism in spec.mechanisms:
        for nrh in spec.nrh_values:
            comparison = MechanismComparison(mechanism=mechanism, nrh=nrh)
            for mix, baseline in zip(spec.mixes, baselines):
                job = mechanism_job(
                    base, mix, mechanism, nrh, spec.accesses_per_core, spec.seed
                )
                result = results[job.key]
                comparison.normalized_weighted_speedups.append(
                    normalized_weighted_speedup(
                        result.core_ipcs,
                        [alone_ipcs[app] for app in mix],
                        baseline.core_ipcs,
                    )
                )
                comparison.normalized_energies.append(
                    result.energy_nj / baseline.energy_nj
                    if baseline.energy_nj > 0
                    else 0.0
                )
                comparison.backoffs_per_mcycle.append(
                    result.backoffs_per_million_cycles()
                )
                comparison.is_secure = comparison.is_secure and result.is_secure
            comparisons.append(comparison)
    return comparisons


def default_mixes(count: int, mix_types: Optional[Sequence[str]] = None, seed: int = 42) -> List[WorkloadMix]:
    """A deterministic subset of the paper's 60 mixes, spread across types."""
    all_mixes = workload_mixes(mixes_per_type=10, seed=seed)
    if mix_types is not None:
        all_mixes = [mix for mix in all_mixes if mix.mix_type in mix_types]
    if count >= len(all_mixes):
        return all_mixes
    # Round-robin across mix types so small counts stay representative.
    by_type: Dict[str, List[WorkloadMix]] = {}
    for mix in all_mixes:
        by_type.setdefault(mix.mix_type, []).append(mix)
    selected: List[WorkloadMix] = []
    index = 0
    while len(selected) < count:
        for mixes_of_type in by_type.values():
            if index < len(mixes_of_type) and len(selected) < count:
                selected.append(mixes_of_type[index])
        index += 1
    return selected
