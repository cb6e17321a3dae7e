"""Figure / table data generators.

One function per table and figure of the paper's evaluation.  Every function
returns plain Python data structures (lists of dicts) so the benchmark
harness can both print the paper-style rows and feed pytest-benchmark, and so
tests can assert the qualitative claims (who wins, how overheads scale with
``N_RH``) without any plotting dependencies.

All simulation-based experiments take ``accesses_per_core`` and mix-count
parameters: the paper simulates 100 M instructions per core for 60 mixes on a
cluster, while the defaults here are sized for a laptop.  docs/EXPERIMENTS.md
records the budgets used for the committed results.

Every simulation-backed function accepts an optional ``engine`` -- a shared
:class:`~repro.experiments.sweep.SweepEngine` -- so multiple figures reuse
one result cache (alone / baseline runs are simulated once for all of them)
and can execute their sweeps across worker processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.bandwidth import (
    bandwidth_attack_table,
)
from repro.analysis.security import (
    DEFAULT_BACKOFF_THRESHOLDS,
    DEFAULT_RFM_THRESHOLDS,
    DEFAULT_ROW_SET_SIZES,
    prac_security_sweep,
    prfm_security_sweep,
)
from repro.analysis.storage import (
    DEFAULT_NRH_VALUES,
    FIG11_MECHANISMS,
    FIG13_MECHANISMS,
    storage_overhead_table,
)
from repro.core.decrementer import DecrementerCircuit
from repro.dram.timing import timing_table_rows
from repro.experiments.runner import compare, default_mixes
from repro.experiments.sweep import SweepEngine, SweepSpec, attack_job, mechanism_job
from repro.system.config import appendix_e_system_config, paper_system_config
from repro.system.metrics import max_slowdown, weighted_speedup
from repro.workloads.mixes import MIX_TYPES
from repro.workloads.synthetic import app_names


#: Default RowHammer thresholds swept by the performance figures.
NRH_SWEEP: tuple = (1024, 512, 256, 128, 64, 32, 20)

#: Mechanisms shown in Fig. 4 (PRAC / RFM configurations).
FIG4_MECHANISMS: tuple = ("PRAC-4", "PRAC-2", "PRAC-1", "PRAC+PRFM", "PRFM")

#: Mechanisms shown in Fig. 7 / 8 / 9 / 10.
FIG8_MECHANISMS: tuple = (
    "Chronus",
    "Chronus-PB",
    "PRAC-4",
    "Graphene",
    "Hydra",
    "PRFM",
    "PARA",
)


# ---------------------------------------------------------------------------
# Table 1 -- DRAM timing parameter changes with PRAC
# ---------------------------------------------------------------------------

def table1_data() -> List[Dict[str, float]]:
    """Rows of Table 1: parameter, ns without PRAC, ns with PRAC."""
    return timing_table_rows()


# ---------------------------------------------------------------------------
# Fig. 3 -- security sweeps
# ---------------------------------------------------------------------------

def fig3a_data(
    rfm_thresholds: Sequence[int] = DEFAULT_RFM_THRESHOLDS,
    row_set_sizes: Sequence[int] = DEFAULT_ROW_SET_SIZES,
) -> List[Dict[str, int]]:
    """Fig. 3a: max activations to a single row under PRFM."""
    sweep = prfm_security_sweep(rfm_thresholds, row_set_sizes)
    rows = []
    for rfm_th, by_r1 in sweep.items():
        for r1, max_acts in by_r1.items():
            rows.append({"rfm_threshold": rfm_th, "initial_rows": r1, "max_acts": max_acts})
    return rows


def fig3b_data(
    backoff_thresholds: Sequence[int] = DEFAULT_BACKOFF_THRESHOLDS,
    nrefs: Sequence[int] = (1, 2, 4),
    row_set_sizes: Sequence[int] = DEFAULT_ROW_SET_SIZES,
) -> List[Dict[str, int]]:
    """Fig. 3b: worst-case max activations under PRAC-N."""
    sweep = prac_security_sweep(backoff_thresholds, nrefs, row_set_sizes)
    rows = []
    for nbo, by_nref in sweep.items():
        for nref, max_acts in by_nref.items():
            rows.append({"nbo": nbo, "nref": nref, "max_acts": max_acts})
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 -- PRAC / RFM variants on four-core workloads
# ---------------------------------------------------------------------------

def fig4_data(
    nrh_values: Sequence[int] = NRH_SWEEP,
    mechanisms: Sequence[str] = FIG4_MECHANISMS,
    num_mixes: int = 4,
    accesses_per_core: int = 4000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Fig. 4: normalised weighted speedup of the industry mechanisms."""
    engine = engine if engine is not None else SweepEngine()
    spec = SweepSpec(
        mechanisms=mechanisms,
        nrh_values=nrh_values,
        mixes=[mix.applications for mix in default_mixes(num_mixes)],
        accesses_per_core=accesses_per_core,
        seed=seed,
    )
    return [
        {
            "mechanism": c.mechanism,
            "nrh": c.nrh,
            "normalized_ws": c.mean_normalized_ws,
            "performance_overhead": c.mean_performance_overhead,
            "max_performance_overhead": c.max_performance_overhead,
            "is_secure": c.is_secure,
        }
        for c in compare(spec, engine.run(spec))
    ]


# ---------------------------------------------------------------------------
# Fig. 7 -- single-core performance
# ---------------------------------------------------------------------------

def fig7_data(
    nrh_values: Sequence[int] = (1024, 32),
    mechanisms: Sequence[str] = FIG8_MECHANISMS,
    applications: Optional[Sequence[str]] = None,
    accesses_per_core: int = 4000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Fig. 7: per-application normalised speedup at N_RH = 1K and 32."""
    if applications is None:
        applications = app_names("H")[:6] + app_names("M")[:2] + app_names("L")[:2]
    engine = engine if engine is not None else SweepEngine()
    spec = SweepSpec(
        mechanisms=mechanisms,
        nrh_values=nrh_values,
        mixes=[(application,) for application in applications],
        accesses_per_core=accesses_per_core,
        seed=seed,
    )
    comparisons = compare(spec, engine.run(spec))
    # Rows go N_RH by N_RH, then mechanism by mechanism (a stable sort).
    comparisons.sort(key=lambda c: spec.nrh_values.index(c.nrh))
    return [
        {
            "nrh": c.nrh,
            "mechanism": c.mechanism,
            "application": application,
            "normalized_speedup": speedup,
        }
        for c in comparisons
        for application, speedup in zip(applications, c.normalized_weighted_speedups)
    ]


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 10 -- multi-core performance and DRAM energy
# ---------------------------------------------------------------------------

def fig8_fig10_data(
    nrh_values: Sequence[int] = NRH_SWEEP,
    mechanisms: Sequence[str] = FIG8_MECHANISMS,
    num_mixes: int = 4,
    accesses_per_core: int = 4000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Fig. 8 (performance) and Fig. 10 (energy) share the same sweep."""
    engine = engine if engine is not None else SweepEngine()
    spec = SweepSpec(
        mechanisms=mechanisms,
        nrh_values=nrh_values,
        mixes=[mix.applications for mix in default_mixes(num_mixes)],
        accesses_per_core=accesses_per_core,
        seed=seed,
    )
    return [
        {
            "mechanism": c.mechanism,
            "nrh": c.nrh,
            "normalized_ws": c.mean_normalized_ws,
            "performance_overhead": c.mean_performance_overhead,
            "normalized_energy": c.mean_normalized_energy,
            "backoffs_per_mcycle": (
                sum(c.backoffs_per_mcycle) / len(c.backoffs_per_mcycle)
                if c.backoffs_per_mcycle
                else 0.0
            ),
            "is_secure": c.is_secure,
        }
        for c in compare(spec, engine.run(spec))
    ]


def fig8_data(**kwargs) -> List[Dict[str, float]]:
    """Fig. 8: normalised weighted speedup of all mechanisms."""
    return fig8_fig10_data(**kwargs)


def fig10_data(**kwargs) -> List[Dict[str, float]]:
    """Fig. 10: normalised DRAM energy of all mechanisms."""
    return fig8_fig10_data(**kwargs)


# ---------------------------------------------------------------------------
# Fig. 9 -- sensitivity to workload memory intensity
# ---------------------------------------------------------------------------

def fig9_data(
    nrh: int = 32,
    mechanisms: Sequence[str] = FIG8_MECHANISMS,
    mixes_per_type: int = 1,
    accesses_per_core: int = 4000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Fig. 9: normalised weighted speedup per workload-intensity type."""
    engine = engine if engine is not None else SweepEngine()
    rows: List[Dict[str, float]] = []
    for mix_type in MIX_TYPES:
        spec = SweepSpec(
            mechanisms=mechanisms,
            nrh_values=(nrh,),
            mixes=[
                mix.applications
                for mix in default_mixes(mixes_per_type, mix_types=[mix_type])
            ],
            accesses_per_core=accesses_per_core,
            seed=seed,
        )
        for c in compare(spec, engine.run(spec)):
            rows.append(
                {
                    "mix_type": mix_type,
                    "mechanism": c.mechanism,
                    "nrh": nrh,
                    "normalized_ws": c.mean_normalized_ws,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 11 / Fig. 13 -- storage overheads
# ---------------------------------------------------------------------------

def fig11_data(nrh_values: Sequence[int] = DEFAULT_NRH_VALUES) -> List[Dict[str, float]]:
    """Fig. 11: storage overhead of Chronus, PRAC, Graphene, Hydra, PRFM."""
    return [
        {
            "mechanism": entry.mechanism,
            "nrh": entry.nrh,
            "dram_bytes": entry.dram_bytes,
            "cpu_bytes": entry.cpu_bytes,
            "total_mib": entry.total_mib,
        }
        for entry in storage_overhead_table(FIG11_MECHANISMS, nrh_values)
    ]


def fig13_data(nrh_values: Sequence[int] = DEFAULT_NRH_VALUES) -> List[Dict[str, float]]:
    """Fig. 13: storage overhead of Chronus vs ABACuS."""
    return [
        {
            "mechanism": entry.mechanism,
            "nrh": entry.nrh,
            "dram_bytes": entry.dram_bytes,
            "cpu_bytes": entry.cpu_bytes,
            "total_mib": entry.total_mib,
        }
        for entry in storage_overhead_table(FIG13_MECHANISMS, nrh_values)
    ]


# ---------------------------------------------------------------------------
# Fig. 12 -- Chronus vs ABACuS performance (Appendix C)
# ---------------------------------------------------------------------------

def fig12_data(
    nrh_values: Sequence[int] = NRH_SWEEP,
    num_mixes: int = 2,
    accesses_per_core: int = 4000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Fig. 12: Chronus vs ABACuS with ABACuS's address mapping."""
    engine = engine if engine is not None else SweepEngine()
    spec = SweepSpec(
        mechanisms=("Chronus", "ABACuS"),
        nrh_values=nrh_values,
        mixes=[mix.applications for mix in default_mixes(num_mixes)],
        accesses_per_core=accesses_per_core,
        seed=seed,
        base_config=paper_system_config().with_overrides(address_mapping="ABACuS"),
    )
    return [
        {
            "mechanism": c.mechanism,
            "nrh": c.nrh,
            "normalized_ws": c.mean_normalized_ws,
            "performance_overhead": c.mean_performance_overhead,
        }
        for c in compare(spec, engine.run(spec))
    ]


# ---------------------------------------------------------------------------
# Fig. 14 / Fig. 15 -- Appendix E eight-core configuration
# ---------------------------------------------------------------------------

def fig14_fig15_data(
    nrh_values: Sequence[int] = NRH_SWEEP,
    applications: Optional[Sequence[str]] = None,
    accesses_per_core: int = 2500,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Fig. 14 / 15: PRAC-4 on eight-core homogeneous workloads, large LLC."""
    if applications is None:
        applications = ["519.lbm", "505.mcf", "523.xalancbmk", "541.leela"]
    base = appendix_e_system_config()
    engine = engine if engine is not None else SweepEngine()
    spec = SweepSpec(
        mechanisms=("PRAC-4",),
        nrh_values=nrh_values,
        mixes=[(app,) * base.num_cores for app in applications],
        accesses_per_core=accesses_per_core,
        seed=seed,
        base_config=base,
    )
    return [
        {
            "mechanism": c.mechanism,
            "nrh": c.nrh,
            "normalized_ws": c.mean_normalized_ws,
            "performance_overhead": c.mean_performance_overhead,
            "normalized_energy": c.mean_normalized_energy,
        }
        for c in compare(spec, engine.run(spec))
    ]


def fig14_data(**kwargs) -> List[Dict[str, float]]:
    """Fig. 14: PRAC-4 performance on the Appendix E configuration."""
    return fig14_fig15_data(**kwargs)


def fig15_data(**kwargs) -> List[Dict[str, float]]:
    """Fig. 15: PRAC-4 DRAM energy on the Appendix E configuration."""
    return fig14_fig15_data(**kwargs)


# ---------------------------------------------------------------------------
# Table 4 -- effect of the PRAC timing erratum fix (Appendix E)
# ---------------------------------------------------------------------------

def table4_data(
    nrh_values: Sequence[int] = (1024, 64, 20),
    num_mixes: int = 2,
    accesses_per_core: int = 4000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """Table 4: PRAC-4 overhead with the old (buggy) vs fixed timings."""
    engine = engine if engine is not None else SweepEngine()
    rows: List[Dict[str, float]] = []
    for legacy in (True, False):
        spec = SweepSpec(
            mechanisms=("PRAC-4",),
            nrh_values=nrh_values,
            mixes=[mix.applications for mix in default_mixes(num_mixes)],
            accesses_per_core=accesses_per_core,
            seed=seed,
            base_config=paper_system_config().with_overrides(
                legacy_prac_timings=legacy
            ),
        )
        for c in compare(spec, engine.run(spec)):
            rows.append(
                {
                    "timings": "old" if legacy else "new",
                    "nrh": c.nrh,
                    "performance_overhead": c.mean_performance_overhead,
                    "normalized_energy": c.mean_normalized_energy,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# §11 -- memory performance attack
# ---------------------------------------------------------------------------

def sec11_theory_data(nrh_values: Sequence[int] = (128, 20)) -> List[Dict[str, float]]:
    """§11 theoretical worst-case DRAM bandwidth consumption."""
    return [
        {
            "mechanism": bound.mechanism,
            "nrh": bound.nrh,
            "nbo": bound.nbo,
            "nref": bound.nref,
            "max_bandwidth_consumption": bound.consumption,
        }
        for bound in bandwidth_attack_table(nrh_values)
    ]


def sec11_simulation_data(
    nrh_values: Sequence[int] = (128, 20),
    mechanisms: Sequence[str] = ("PRAC-4", "Chronus"),
    num_mixes: int = 2,
    accesses_per_core: int = 3000,
    attack_accesses: int = 12000,
    seed: int = 0,
    engine: Optional[SweepEngine] = None,
) -> List[Dict[str, float]]:
    """§11 simulation: one attacker core + three benign cores.

    System performance (weighted speedup of the benign cores) and the maximum
    single-application slowdown are reported relative to the same mix running
    under the same mechanism *without* the attacker.
    """
    engine = engine if engine is not None else SweepEngine()
    base = paper_system_config()
    mixes = default_mixes(num_mixes)

    def point_jobs(mechanism: str, nrh: int, mix) -> tuple:
        benign_apps = tuple(mix.applications[:3])
        attacked = attack_job(
            base, benign_apps, mechanism, nrh, accesses_per_core,
            attack_accesses, seed=seed, workload_name=f"attack+{mix.name}",
        )
        peaceful = mechanism_job(
            base, benign_apps, mechanism, nrh, accesses_per_core,
            seed=seed, workload_name=mix.name,
        )
        return attacked, peaceful

    points = [
        (mechanism, nrh, mix)
        for mechanism in mechanisms
        for nrh in nrh_values
        for mix in mixes
    ]
    results = engine.run_jobs([job for point in points for job in point_jobs(*point)])

    rows: List[Dict[str, float]] = []
    for mechanism in mechanisms:
        for nrh in nrh_values:
            ws_losses = []
            max_slowdowns = []
            for mix in mixes:
                attacked_job, peaceful_job = point_jobs(mechanism, nrh, mix)
                attacked = results[attacked_job.key]
                peaceful = results[peaceful_job.key]

                benign_ipcs_attacked = attacked.core_ipcs[1:]
                benign_ipcs_peaceful = peaceful.core_ipcs
                ws_attacked = weighted_speedup(benign_ipcs_attacked, benign_ipcs_peaceful)
                ws_losses.append(1.0 - ws_attacked / len(benign_ipcs_peaceful))
                max_slowdowns.append(
                    max_slowdown(benign_ipcs_attacked, benign_ipcs_peaceful)
                )
            rows.append(
                {
                    "mechanism": mechanism,
                    "nrh": nrh,
                    "mean_performance_loss": sum(ws_losses) / len(ws_losses),
                    "max_performance_loss": max(ws_losses),
                    "max_slowdown": max(max_slowdowns),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Appendix A -- decrementer circuit
# ---------------------------------------------------------------------------

def appendix_a_data() -> Dict[str, object]:
    """Appendix A: decrementer gate counts, delay, and functional check."""
    circuit = DecrementerCircuit()
    mismatches = sum(
        1 for value in range(256) if circuit.evaluate(value) != (value - 1) % 256
    )
    return {
        "gate_count": circuit.gate_count,
        "transistor_count": circuit.transistor_count,
        "critical_path_delay_ns": circuit.critical_path_delay_ns,
        "fits_within_trc": circuit.fits_within_row_cycle(),
        "functional_mismatches": mismatches,
        "table": circuit.table_rows(),
    }


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

def format_rows(rows: Sequence[Dict[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of dict rows as a fixed-width text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {
        column: max(len(str(column)), *(len(_fmt(row.get(column))) for row in rows))
        for column in columns
    }
    header = "  ".join(str(column).ljust(widths[column]) for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            "  ".join(_fmt(row.get(column)).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
