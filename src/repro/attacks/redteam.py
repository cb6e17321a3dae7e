"""Empirical red-team search engine.

For each mitigation mechanism, :class:`RedTeamEngine` searches for the
RowHammer thresholds at which a synthesised attack pattern *empirically*
escapes the mechanism -- i.e. a ground-truth
:class:`~repro.attacks.oracle.DisturbanceOracle` observes some row reaching
``N_RH`` activations before its victims are refreshed -- and compares that
boundary with the analytical bound of :mod:`repro.analysis.security`.

Search structure:

1. **Grid scan.**  Every (N_RH, attack spec) combination of the grid becomes
   one :func:`~repro.experiments.sweep.attack_search_job`, executed as a
   single batch through a :class:`~repro.experiments.sweep.SweepEngine` --
   so probes run in parallel when the engine has workers and are memoised in
   its persistent :class:`~repro.experiments.cache.ResultCache`.  Thresholds
   at which the mechanism cannot even be *configured* (e.g. Chronus below
   ``Anormal + 2``) are recorded as escapes by construction, without
   simulating.
2. **Bisection refinement.**  Between the largest escaping grid threshold
   and the smallest non-escaping one, a deterministic binary search narrows
   the empirical security boundary to consecutive integers.

Everything is deterministic for a fixed seed: it is the seed of every
probe job, which feeds both the trace and PARA's RNG, and the search path
depends only on the results, so repeated runs replay entirely from the
cache and serial and parallel execution agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.security import (
    minimum_secure_nrh_chronus,
    minimum_secure_nrh_prac,
    minimum_secure_nrh_prfm,
)
from repro.attacks.patterns import AttackSpec, default_search_specs
from repro.core.factory import MECHANISM_NAMES, build_mechanism
from repro.experiments.sweep import SimJob, SweepEngine, attack_search_job
from repro.system.config import SystemConfig, paper_system_config

#: RowHammer thresholds probed by default.  ``N_RH = 1`` is the degenerate
#: floor (the very first activation is already an escape, for any defence),
#: which guarantees every mechanism reports an empirical escaping threshold.
DEFAULT_NRH_GRID: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Safety bound on bisection steps (the grid spans small integers).
MAX_REFINEMENT_STEPS = 12


def analytical_min_secure_nrh(mechanism: str) -> Optional[int]:
    """Smallest analytically secure ``N_RH`` for a factory mechanism.

    Returns ``None`` for mechanisms the paper's wave-attack analysis does not
    model (the deterministic trackers and PARA) and for the no-mitigation
    baseline (which is never secure).
    """
    if mechanism in ("PRAC-1", "PRAC-2", "PRAC-4"):
        return minimum_secure_nrh_prac(int(mechanism.split("-")[1]))
    if mechanism in ("PRAC+PRFM",):
        # The composite inherits PRAC-4's configurability limit.
        return minimum_secure_nrh_prac(4)
    if mechanism == "Chronus":
        return minimum_secure_nrh_chronus()
    if mechanism == "Chronus-PB":
        # CCU with PRAC-4's back-off policy: configured via the PRAC analysis.
        return minimum_secure_nrh_prac(4)
    if mechanism == "PRFM":
        return minimum_secure_nrh_prfm()
    return None


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one (mechanism, N_RH, attack spec) probe."""

    mechanism: str
    nrh: int
    spec: Optional[AttackSpec]
    #: False when the mechanism cannot be configured at this N_RH at all
    #: (escape by construction; nothing was simulated).
    configured: bool
    #: The mechanism's own claim about its configuration (red-edged bars).
    secure_config: bool
    escaped: bool
    max_disturbance: int
    first_escape_cycle: Optional[int]
    job_key: Optional[str] = None

    @property
    def spec_label(self) -> str:
        return self.spec.label if self.spec is not None else "(unconfigurable)"


@dataclass
class RedTeamReport:
    """Aggregated red-team search result for one mechanism."""

    mechanism: str
    nrh_grid: Tuple[int, ...]
    probes: List[ProbeResult] = field(default_factory=list)
    analytical_min_secure: Optional[int] = None
    refined: bool = False

    # ------------------------------------------------------------------ #
    # Empirical boundary
    # ------------------------------------------------------------------ #
    def escaping_nrh_values(self) -> List[int]:
        """Thresholds at which at least one probe escaped, ascending."""
        return sorted({p.nrh for p in self.probes if p.escaped})

    @property
    def empirical_min_escaping_nrh(self) -> Optional[int]:
        """Smallest ``N_RH`` at which an attack escaped (None: no escape)."""
        escaping = self.escaping_nrh_values()
        return escaping[0] if escaping else None

    @property
    def empirical_max_escaping_nrh(self) -> Optional[int]:
        """Largest ``N_RH`` at which an attack escaped (None: no escape)."""
        escaping = self.escaping_nrh_values()
        return escaping[-1] if escaping else None

    @property
    def empirical_min_secure_nrh(self) -> Optional[int]:
        """Smallest probed ``N_RH`` above every observed escape.

        ``None`` when even the largest probed threshold was escaped.
        """
        max_escaping = self.empirical_max_escaping_nrh
        candidates = sorted(
            {p.nrh for p in self.probes}
            if max_escaping is None
            else {p.nrh for p in self.probes if p.nrh > max_escaping}
        )
        return candidates[0] if candidates else None

    def best_probe(self, nrh: int) -> Optional[ProbeResult]:
        """The most disturbing probe at ``nrh`` (escapes first)."""
        probes = [p for p in self.probes if p.nrh == nrh]
        if not probes:
            return None
        return max(probes, key=lambda p: (p.escaped, p.max_disturbance))

    # ------------------------------------------------------------------ #
    # Analytical comparison
    # ------------------------------------------------------------------ #
    @property
    def disagreement(self) -> Optional[str]:
        """Human-readable empirical-vs-analytical discrepancy (or None).

        An attack escaping at an analytically *secure* threshold is the
        alarming direction; the converse (analytically insecure but no
        escape observed) is expected at this simulation scale -- the
        analytical wave attack assumes a full 32 ms refresh window -- and is
        therefore not flagged.
        """
        if self.analytical_min_secure is None:
            return None
        max_escaping = self.empirical_max_escaping_nrh
        if max_escaping is not None and max_escaping >= self.analytical_min_secure:
            return (
                f"attack escaped at N_RH={max_escaping}, which the analysis "
                f"claims secure (analytical minimum {self.analytical_min_secure})"
            )
        return None


class RedTeamEngine:
    """Searches for the empirical security boundary of each mechanism."""

    def __init__(
        self,
        engine: Optional[SweepEngine] = None,
        base_config: Optional[SystemConfig] = None,
        seed: int = 0,
    ) -> None:
        """Create a red-team engine.

        Args:
            engine: sweep engine used to execute (and cache) the probes; a
                fresh memory-only engine when omitted.
            base_config: system configuration the probes derive from.
            seed: the seed of every probe job, which feeds trace
                generation and the mechanisms' RNGs.

        The analytical comparison and the configurability pre-check both use
        the Table 1 timings of :mod:`repro.dram.timing` -- the same values the
        simulator's mechanism factory is built with, so the pre-check always
        agrees with what the executed jobs would do.
        """
        self.engine = engine if engine is not None else SweepEngine()
        self.base_config = base_config or paper_system_config()
        self.seed = seed

    # ------------------------------------------------------------------ #
    # Job construction
    # ------------------------------------------------------------------ #
    def can_configure(self, mechanism: str, nrh: int) -> bool:
        """True if the mechanism can be instantiated at ``nrh`` at all."""
        try:
            build_mechanism(
                mechanism,
                nrh=nrh,
                num_banks=self.base_config.organization.total_banks,
                seed=self.seed,
            )
            return True
        except ValueError:
            return False

    def build_job(self, mechanism: str, nrh: int, spec: AttackSpec) -> SimJob:
        """The sweep job for one probe."""
        return attack_search_job(
            self.base_config, mechanism, nrh, spec, seed=self.seed
        )

    def probe_jobs(
        self, mechanism: str, nrh_values: Sequence[int], specs: Sequence[AttackSpec]
    ) -> List[SimJob]:
        """All simulable probe jobs of a grid (unconfigurable points skipped)."""
        if any(nrh <= 0 for nrh in nrh_values):
            raise ValueError("nrh_values must be positive")
        return [
            self.build_job(mechanism, nrh, spec)
            for nrh in nrh_values
            if self.can_configure(mechanism, nrh)
            for spec in specs
        ]

    # ------------------------------------------------------------------ #
    # Probing
    # ------------------------------------------------------------------ #
    def _probe_batch(
        self, mechanism: str, nrh_values: Sequence[int], specs: Sequence[AttackSpec]
    ) -> List[ProbeResult]:
        """Run one batch of probes (one engine call; parallel-friendly)."""
        probes: List[ProbeResult] = []
        jobs: List[Tuple[int, AttackSpec, SimJob]] = []
        for nrh in nrh_values:
            if not self.can_configure(mechanism, nrh):
                probes.append(
                    ProbeResult(
                        mechanism=mechanism,
                        nrh=nrh,
                        spec=None,
                        configured=False,
                        secure_config=False,
                        escaped=True,
                        max_disturbance=nrh,
                        first_escape_cycle=None,
                    )
                )
                continue
            for spec in specs:
                jobs.append((nrh, spec, self.build_job(mechanism, nrh, spec)))
        results = self.engine.run_jobs([job for _, _, job in jobs])
        for nrh, spec, job in jobs:
            result = results[job.key]
            stats = result.mitigation_stats
            first_escape = stats.get("oracle_first_escape_cycle", -1)
            probes.append(
                ProbeResult(
                    mechanism=mechanism,
                    nrh=nrh,
                    spec=spec,
                    configured=True,
                    secure_config=result.is_secure,
                    escaped=bool(stats.get("oracle_escaped", 0)),
                    max_disturbance=int(stats.get("oracle_max_disturbance", 0)),
                    first_escape_cycle=None if first_escape < 0 else first_escape,
                    job_key=job.key,
                )
            )
        return probes

    def probe(self, mechanism: str, nrh: int, spec: AttackSpec) -> ProbeResult:
        """Run (or fetch) a single probe."""
        return self._probe_batch(mechanism, [nrh], [spec])[0]

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(
        self,
        mechanism: str,
        nrh_values: Sequence[int] = DEFAULT_NRH_GRID,
        patterns: Optional[Sequence[str]] = None,
        specs: Optional[Sequence[AttackSpec]] = None,
        refine: bool = True,
    ) -> RedTeamReport:
        """Grid scan plus bisection refinement for one mechanism.

        Args:
            mechanism: a :data:`~repro.core.factory.MECHANISM_NAMES` entry.
            nrh_values: RowHammer thresholds of the grid scan.
            patterns: restrict the synthesised patterns (default: all).
            specs: explicit attack specs (overrides ``patterns``).
            refine: bisect between the largest escaping and the smallest
                surviving threshold until they are consecutive.
        """
        if mechanism not in MECHANISM_NAMES:
            raise ValueError(
                f"unknown mechanism {mechanism!r}; expected one of {MECHANISM_NAMES}"
            )
        grid = tuple(sorted(set(nrh_values)))
        if not grid or grid[0] <= 0:
            raise ValueError("nrh_values must be positive")
        if specs is None:
            specs = default_search_specs(patterns, seed=self.seed)
        report = RedTeamReport(
            mechanism=mechanism,
            nrh_grid=grid,
            analytical_min_secure=analytical_min_secure_nrh(mechanism),
        )
        report.probes.extend(self._probe_batch(mechanism, grid, specs))

        if refine:
            self._refine(report, specs)
        return report

    def _refine(self, report: RedTeamReport, specs: Sequence[AttackSpec]) -> None:
        """Bisect the empirical boundary to consecutive thresholds."""
        for _ in range(MAX_REFINEMENT_STEPS):
            low = report.empirical_max_escaping_nrh
            high = report.empirical_min_secure_nrh
            if low is None or high is None or high - low <= 1:
                break
            mid = (low + high) // 2
            report.probes.extend(self._probe_batch(report.mechanism, [mid], specs))
            report.refined = True

    def compare(
        self,
        mechanisms: Sequence[str] = MECHANISM_NAMES,
        nrh_values: Sequence[int] = DEFAULT_NRH_GRID,
        patterns: Optional[Sequence[str]] = None,
        refine: bool = True,
    ) -> List[RedTeamReport]:
        """Run :meth:`search` for several mechanisms."""
        return [
            self.search(mechanism, nrh_values, patterns=patterns, refine=refine)
            for mechanism in mechanisms
        ]
