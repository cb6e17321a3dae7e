"""Workloads, fingerprints, gates and the per-round runner of the benchmark.

A *round* runs one workload's whole job set once in the calling process
and returns a JSON-serialisable record: host timings, simulated counts and
one fingerprint per job.  ``run.py`` runs every round in a fresh child
interpreter; ``test_e2e_bench.py`` calls :func:`run_round` directly on
shrunken workloads (``scale`` < 1).

Simulated caches start empty (cold LLC) in every job, as in the figure
sweeps.  Only host time is measured; the simulated statistics are
correctness checks.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
if os.path.join(REPO_ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.attacks.oracle import DisturbanceOracle  # noqa: E402
from repro.attacks.patterns import AttackSpec  # noqa: E402
from repro.controller.controller import MemoryController  # noqa: E402
from repro.controller.router import ChannelRouter  # noqa: E402
from repro.core.mitigation import MitigationMechanism  # noqa: E402
from repro.cpu.cache import Cache  # noqa: E402
from repro.cpu.core import Core  # noqa: E402
from repro.dram.device import DramDevice  # noqa: E402
from repro.dram.refresh import RefreshScheduler  # noqa: E402
from repro.energy.drampower import EnergyModel  # noqa: E402
from repro.experiments import sweep  # noqa: E402
from repro.experiments.cache import ResultCache  # noqa: E402
from repro.experiments.runner import default_mixes  # noqa: E402
from repro.experiments.sweep import SimJob, SweepEngine, SweepSpec  # noqa: E402
from repro.system.config import paper_system_config  # noqa: E402
from repro.system.metrics import SimulationResult  # noqa: E402
from repro.system.simulator import SystemSimulator  # noqa: E402

from tracer import FIRST, TRUTHY, Span, Tracer  # noqa: E402

#: Scratch space for the figure sweep's result cache (ignored by git).
WORK_DIR = os.path.join(HERE, ".work")
FINGERPRINTS_PATH = os.path.join(HERE, "fingerprints.json")
#: The seed the committed fingerprints were recorded with.
FINGERPRINT_SEED = 0

# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #

#: Back-off mechanisms the paper separates; each must back off under attack.
BACKOFF_MECHANISMS = ("PRAC-1", "PRAC-4", "Chronus", "Chronus-PB")
ATTACK_MECHANISMS = BACKOFF_MECHANISMS + ("PRFM",)
#: Variant pairs the paper tells apart, so their fingerprints must differ.
DISTINCT_PAIRS = (("PRAC-1", "PRAC-4"), ("Chronus", "Chronus-PB"))
#: The mitigation-idle control set and its threshold (modern chips).
BENIGN_MECHANISMS = ("None", "PRAC-4", "Chronus", "PRFM")
BENIGN_NRH = 1024
#: Future-chip threshold of the attack workloads.
ATTACK_NRH = 20

# Benchmark-size inputs.  A round of each workload costs 2-4 s of host time
# on a 2-CPU x86 container, so a 25 s run measures 5-8 rounds.
BENIGN_ACCESSES = 400
PERF_ATTACK_ACCESSES = 800
PERF_ATTACK_BENIGN_ACCESSES = 200
WAVE_ROWS = 64
WAVE_ROUNDS = 20
WAVE_ROW_STRIDE = 4
WAVE_ROW_WINDOW = 4096
SWEEP_ACCESSES = 120

Plan = Union[Dict[str, SimJob], SweepSpec]


def _scaled(value: int, scale: float) -> int:
    return max(1, round(value * scale))


def _benign_mix() -> Tuple[str, ...]:
    return default_mixes(1)[0].applications


def _benign_plan(seed: int, scale: float) -> Plan:
    base = paper_system_config()
    return {
        f"{mechanism}/ch{channels}": sweep.mechanism_job(
            base.with_overrides(channels=channels), _benign_mix(), mechanism,
            BENIGN_NRH, _scaled(BENIGN_ACCESSES, scale), seed=seed,
        )
        for channels in (1, 2)
        for mechanism in BENIGN_MECHANISMS
    }


def _perf_attack_plan(seed: int, scale: float) -> Plan:
    base = paper_system_config()
    return {
        mechanism: sweep.attack_job(
            base, _benign_mix()[:3], mechanism, ATTACK_NRH,
            _scaled(PERF_ATTACK_BENIGN_ACCESSES, scale),
            _scaled(PERF_ATTACK_ACCESSES, scale), seed=seed,
        )
        for mechanism in ATTACK_MECHANISMS
    }


def _wave_plan(seed: int, scale: float) -> Plan:
    base = paper_system_config()
    # The seed places the decoy row set: same work, different bank and rows.
    # The rows stay within the bank's first WAVE_ROW_WINDOW rows, because the
    # simulator's memory grows with the highest row touched; a set placed
    # anywhere in the bank would make peak_rss_mib depend on the seed.
    rng = random.Random(seed)
    spec = AttackSpec.create(
        "wave",
        {
            "num_rows": WAVE_ROWS,
            "rounds": _scaled(WAVE_ROUNDS, scale),
            "row_stride": WAVE_ROW_STRIDE,
            "bank_index": rng.randrange(base.organization.total_banks),
            "first_row": rng.randrange(WAVE_ROW_WINDOW - WAVE_ROWS * WAVE_ROW_STRIDE),
        },
        seed=seed,
    )
    # Graphene rides along so the controller-side preventive refresh path
    # (pop_refresh, VRR) runs somewhere; no other workload triggers it.
    return {
        mechanism: sweep.attack_search_job(
            base, mechanism, ATTACK_NRH, spec, seed=seed
        )
        for mechanism in ATTACK_MECHANISMS + ("Graphene",)
    }


def _fig_sweep_plan(seed: int, scale: float) -> Plan:
    return SweepSpec(
        mechanisms=("Chronus", "PRAC-4", "PRFM", "Graphene"),
        nrh_values=(1024, 128),
        mixes=tuple(mix.applications for mix in default_mixes(2)),
        accesses_per_core=_scaled(SWEEP_ACCESSES, scale),
        seed=seed,
    )


Fingerprints = Dict[str, Dict[str, object]]


def _gate_mechanisms_act(fingerprints: Fingerprints) -> Dict[str, str]:
    """The attack workloads must run the back-off and RFM code they time."""
    failures: Dict[str, str] = {}
    for job_id in BACKOFF_MECHANISMS:
        fp = fingerprints.get(job_id)
        if fp is not None and not fp["backoffs_observed"]:
            failures[job_id] = "0 back-offs: the back-off protocol never ran"
    prfm = fingerprints.get("PRFM")
    if prfm is not None and not prfm["rfms"]:
        failures["PRFM"] = "0 RFMs: PRFM never acted"
    graphene = fingerprints.get("Graphene")
    if graphene is not None and not graphene["preventive_refresh_rows"]:
        failures["Graphene"] = "0 preventive refreshes: Graphene never acted"
    for first, second in DISTINCT_PAIRS:
        if first in fingerprints and fingerprints.get(first) == fingerprints.get(second):
            failures[first] = failures[second] = (
                f"{first} and {second} have identical fingerprints"
            )
    return failures


def _gate_idle(fingerprints: Fingerprints) -> Dict[str, str]:
    """The benign control must not back off, or it stops being the control."""
    return {
        job_id: f"{fp['backoffs_observed']} back-offs on the mitigation-idle control"
        for job_id, fp in fingerprints.items()
        if fp["backoffs_observed"]
    }


def _no_gate(fingerprints: Fingerprints) -> Dict[str, str]:
    return {}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its job set and the gate it must pass.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    plan: Callable[[int, float], Plan]
    gate: Callable[[Fingerprints], Dict[str, str]]


WORKLOADS: Dict[str, Workload] = {
    "benign-4core": Workload(_benign_plan, _gate_idle),
    "perf-attack": Workload(_perf_attack_plan, _gate_mechanisms_act),
    "wave": Workload(_wave_plan, _gate_mechanisms_act),
    "fig-sweep": Workload(_fig_sweep_plan, _no_gate),
}


def job_set(name: str, seed: int, scale: float = 1.0) -> Dict[str, SimJob]:
    """Job id -> job of one workload round."""
    plan = WORKLOADS[name].plan(seed, scale)
    if isinstance(plan, SweepSpec):
        return {job.label: job for job in plan.expand()}
    return plan


# --------------------------------------------------------------------------- #
# Traced layers
# --------------------------------------------------------------------------- #

BUILD_TRACES = "workloads.build_job_traces"
BUILD_SYSTEM = "system.build"
#: Controller-to-device commands whose traced calls must equal the results'
#: command counts (VRR counts rows, not calls, so it is left out).
DEVICE_COMMANDS = (
    ("act", "ACT"), ("pre", "PRE"), ("rd", "RD"),
    ("wr", "WR"), ("ref", "REF"), ("rfm", "RFM"),
)
MITIGATION_HOOKS = (
    "on_activate", "on_precharge", "on_rfm", "on_periodic_refresh",
    "backoff_asserted", "acknowledge_rfm", "pop_refresh",
)


def _class_tree(root: type) -> Tuple[type, ...]:
    classes = [root]
    for klass in classes:
        classes.extend(klass.__subclasses__())
    return tuple(classes)


def setup_spans() -> List[Span]:
    """The two set-up spans every round times (the ``setup_s`` metric)."""
    return [
        Span(BUILD_TRACES, (sweep,), ("build_job_traces",)),
        Span(BUILD_SYSTEM, (SystemSimulator,), ("__init__",)),
    ]


def layer_spans() -> List[Span]:
    """Every span of a traced round, outermost layers first."""
    mechanisms = _class_tree(MitigationMechanism)
    device = [
        Span(f"dram.device.{short}", (DramDevice,), (method,))
        for short, method in (
            ("act", "activate"), ("pre", "precharge"), ("rd", "read"),
            ("wr", "write"), ("ref", "refresh"), ("rfm", "rfm"),
            ("vrr", "victim_refresh"),
        )
    ]
    return [
        Span("experiments.sweep.run", (SweepEngine,), ("run",)),
        Span("experiments.cache.get", (ResultCache,), ("get",)),
        Span("experiments.cache.put", (ResultCache,), ("put",)),
        *setup_spans(),
        Span("system.run", (SystemSimulator,), ("run",)),
        Span("cpu.core.try_issue", (Core,), ("try_issue",), TRUTHY),
        Span("cpu.core.notify_completion", (Core,), ("notify_completion",)),
        Span("cpu.cache.access_if_hit", (Cache,), ("access_if_hit",)),
        Span("cpu.cache.access", (Cache,), ("access",)),
        # The single-channel router binds _tick_single as its tick.
        Span("controller.router.tick", (ChannelRouter,), ("tick", "_tick_single")),
        Span("controller.router.enqueue", (ChannelRouter,), ("enqueue",), TRUTHY),
        Span("controller.tick", (MemoryController,), ("tick",), FIRST),
        Span("controller.enqueue", (MemoryController,), ("enqueue",)),
        *device,
        Span("dram.refresh.tick", (RefreshScheduler,), ("tick",)),
        *(
            Span(f"core.mitigation.{hook}", mechanisms, (hook,))
            for hook in MITIGATION_HOOKS
        ),
        Span("attacks.oracle.on_activate", (DisturbanceOracle,), ("on_activate",)),
        Span(
            "attacks.oracle.on_victims_refreshed",
            (DisturbanceOracle,), ("on_victims_refreshed",),
        ),
        Span("energy.compute", (EnergyModel,), ("compute",)),
    ]


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in SIM_COUNTS:
        return "count"
    if name.endswith(".self_s"):
        return "s"
    if name == "sim.cycles":
        return "cycles"
    if name == "trace.overhead":
        return "x"
    return "fraction"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-span calls, self time and share, the yields and the coverage."""
    totals = tracer.totals()
    metrics: Dict[str, float] = {}
    for name, entry in totals.items():
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_s"]
        metrics[f"{name}.share"] = entry["self_s"] / wall
    try_issue = totals["cpu.core.try_issue"]
    tick = totals["controller.tick"]
    enqueue = totals["controller.router.enqueue"]
    metrics["cpu.core.try_issue.yield"] = _ratio(try_issue["hits"], try_issue["calls"])
    metrics["controller.tick.yield"] = _ratio(tick["hits"], tick["calls"])
    metrics["controller.router.enqueue.reject"] = _ratio(
        enqueue["calls"] - enqueue["hits"], enqueue["calls"]
    )
    metrics["trace.coverage"] = sum(e["self_s"] for e in totals.values()) / wall
    return metrics


# --------------------------------------------------------------------------- #
# Results: fingerprints and simulated counts
# --------------------------------------------------------------------------- #

SIM_COUNTS = (
    "sim.commands", "sim.backoffs", "sim.rfms",
    "sim.preventive_refresh_rows", "sim.borrowed_refreshes",
)


def fingerprint(result: SimulationResult) -> Dict[str, object]:
    """The simulated numbers a host-time optimisation must not move."""
    stats = result.controller_stats
    fp: Dict[str, object] = {
        "cycles": result.cycles,
        "core_ipcs": list(result.core_ipcs),
        "energy_nj": result.energy_nj,
        "command_counts": dict(sorted(result.command_counts.items())),
        "backoffs_observed": stats["backoffs_observed"],
        "rfms": stats["rfms"],
        "preventive_refresh_rows": stats["preventive_refresh_rows"],
        "borrowed_refreshes": result.mitigation_stats.get("borrowed_refreshes", 0),
    }
    if "oracle_max_disturbance" in result.mitigation_stats:
        fp["oracle_max_disturbance"] = result.mitigation_stats["oracle_max_disturbance"]
    return fp


def digest(fingerprints: Fingerprints) -> str:
    """Short content hash of a round's fingerprints (compares two commits)."""
    canonical = json.dumps(fingerprints, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def sim_counts(results: Sequence[SimulationResult]) -> Dict[str, float]:
    counts: Dict[str, float] = {"sim.cycles": 0, **dict.fromkeys(SIM_COUNTS, 0)}
    row_hits = row_accesses = 0
    for result in results:
        stats = result.controller_stats
        counts["sim.cycles"] += result.cycles
        counts["sim.commands"] += sum(result.command_counts.values())
        counts["sim.backoffs"] += stats["backoffs_observed"]
        counts["sim.rfms"] += stats["rfms"]
        counts["sim.preventive_refresh_rows"] += stats["preventive_refresh_rows"]
        counts["sim.borrowed_refreshes"] += result.mitigation_stats.get(
            "borrowed_refreshes", 0
        )
        row_hits += stats["row_hits"]
        row_accesses += stats["row_hits"] + stats["row_misses"] + stats["row_conflicts"]
    counts["sim.row_hit_rate"] = _ratio(row_hits, row_accesses)
    counts["sim.llc_miss_rate"] = (
        statistics.fmean(r.controller_stats["llc_miss_rate"] for r in results)
        if results else 0.0
    )
    return counts


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --------------------------------------------------------------------------- #
# One round
# --------------------------------------------------------------------------- #

Outcomes = Dict[str, Tuple[SimJob, SimulationResult]]


def _run_jobs(
    jobs: Dict[str, SimJob], tracer: Tracer
) -> Tuple[float, Outcomes, Dict[str, str]]:
    outcomes: Outcomes = {}
    errors: Dict[str, str] = {}
    with tracer.installed():
        start = time.perf_counter()
        for job_id, job in jobs.items():
            try:
                outcomes[job_id] = (job, sweep.execute_job(job))
            except Exception as exc:  # a failed job is counted, not fatal
                errors[job_id] = _describe(exc)
        wall = time.perf_counter() - start
    return wall, outcomes, errors


def _run_sweep(
    spec: SweepSpec, tracer: Tracer, work_dir: str
) -> Tuple[float, Outcomes, Dict[str, str]]:
    """Cold serial run (timed), then an untimed warm re-run from disk."""
    jobs = {job.key: job for job in spec.expand()}
    os.makedirs(work_dir, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="fig-sweep-", dir=work_dir)
    errors: Dict[str, str] = {}
    try:
        with tracer.installed():
            start = time.perf_counter()
            try:
                cold = SweepEngine(cache=ResultCache(cache_dir), workers=0).run(spec)
            except Exception as exc:  # every job of the sweep is lost
                cold = {}
                errors = {job.label: _describe(exc) for job in jobs.values()}
            wall = time.perf_counter() - start
        executed: List[str] = []

        def on_progress(event: Dict[str, object]) -> None:
            if event["event"] == "job":
                executed.append(str(event["key"]))

        if cold:
            warm_engine = SweepEngine(cache=ResultCache(cache_dir), workers=0)
            try:
                warm = warm_engine.run(spec, progress=on_progress)
            except Exception as exc:
                warm = {}
                errors = {job.label: f"warm re-run: {_describe(exc)}" for job in jobs.values()}
            for key in executed:
                errors[jobs[key].label] = "warm re-run executed the job again"
            for key, result in warm.items():
                if fingerprint(result) != fingerprint(cold[key]):
                    errors[jobs[key].label] = "warm re-run served a different result"
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    outcomes = {jobs[key].label: (jobs[key], result) for key, result in cold.items()}
    return wall, outcomes, errors


def run_round(
    name: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    work_dir: str = WORK_DIR,
) -> Dict[str, object]:
    """Run one round of workload ``name``; return its JSON-able record.

    Untraced rounds time only the two set-up spans.  A traced round wraps
    every layer of :func:`layer_spans` and adds the per-layer table.
    """
    plan = WORKLOADS[name].plan(seed, scale)
    tracer = Tracer(layer_spans() if traced else setup_spans())
    if isinstance(plan, SweepSpec):
        job_ids = [job.label for job in plan.expand()]
        wall, outcomes, errors = _run_sweep(plan, tracer, work_dir)
    else:
        job_ids = list(plan)
        wall, outcomes, errors = _run_jobs(plan, tracer)
    for job_id, (job, result) in outcomes.items():
        if result.cycles >= job.config.max_cycles:
            errors[job_id] = f"truncated: hit max_cycles={job.config.max_cycles}"
    results = [result for _job, result in outcomes.values()]
    sim = sim_counts(results)
    command_counts: Dict[str, int] = {}
    for result in results:
        for mnemonic, count in result.command_counts.items():
            command_counts[mnemonic] = command_counts.get(mnemonic, 0) + count
    totals = tracer.totals()
    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "jobs": job_ids,
        "wall_s": wall,
        "setup_s": totals[BUILD_TRACES]["total_s"] + totals[BUILD_SYSTEM]["total_s"],
        "us_per_cmd": wall / sim["sim.commands"] * 1e6 if sim["sim.commands"] else None,
        # Peak of the whole process (a child runs exactly one round); KiB on Linux.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fingerprints": {
            job_id: fingerprint(result) for job_id, (_job, result) in outcomes.items()
        },
        "errors": errors,
        "command_counts": command_counts,
    }
    if traced:
        record["layers"] = {**layer_metrics(tracer, wall), **sim}
        record["edges"] = tracer.edge_table()
    return record


# --------------------------------------------------------------------------- #
# Checks of a finished round
# --------------------------------------------------------------------------- #

def trace_mismatches(record: Dict[str, object]) -> List[str]:
    """Device commands whose traced calls differ from the simulated counts."""
    layers = record["layers"]
    counts = record["command_counts"]
    return [
        f"dram.device.{short}.calls={layers[f'dram.device.{short}.calls']} "
        f"but {mnemonic}={counts.get(mnemonic, 0)}"
        for short, mnemonic in DEVICE_COMMANDS
        if layers[f"dram.device.{short}.calls"] != counts.get(mnemonic, 0)
    ]


def _fingerprint_diff(expected: Dict[str, object], actual: Dict[str, object]) -> str:
    keys = sorted(k for k in set(expected) | set(actual) if expected.get(k) != actual.get(k))
    return ", ".join(f"{k}: {expected.get(k)!r} -> {actual.get(k)!r}" for k in keys)


def check_round(
    record: Dict[str, object], expected: Optional[Fingerprints]
) -> Dict[str, str]:
    """Job id -> reason, for every job of ``record`` that failed.

    ``expected`` holds reference fingerprints (the committed ones, or those
    of an earlier round of the same run); jobs missing from it are not
    compared.  The workload's gate runs on every round.
    """
    failures = dict(record["errors"])
    fingerprints: Fingerprints = record["fingerprints"]
    for job_id in record["jobs"]:
        if job_id in failures:
            continue
        if job_id not in fingerprints:
            failures[job_id] = "no result"
        elif expected and job_id in expected and expected[job_id] != fingerprints[job_id]:
            failures[job_id] = "fingerprint mismatch: " + _fingerprint_diff(
                expected[job_id], fingerprints[job_id]
            )
    for job_id, reason in WORKLOADS[record["workload"]].gate(fingerprints).items():
        failures.setdefault(job_id, reason)
    if record["traced"]:
        mismatches = trace_mismatches(record)
        if mismatches:
            reason = "tracer miscounted: " + "; ".join(mismatches)
            for job_id in record["jobs"]:
                failures.setdefault(job_id, reason)
    return failures


def load_fingerprints() -> Dict[str, Fingerprints]:
    """Committed fingerprints per workload (empty when none are recorded)."""
    try:
        with open(FINGERPRINTS_PATH) as handle:
            data = json.load(handle)
    except FileNotFoundError:
        return {}
    return {name: entry["jobs"] for name, entry in data["workloads"].items()}


def save_fingerprints(recorded: Dict[str, Fingerprints]) -> None:
    workloads = {
        name: {"digest": digest(fps), "jobs": fps}
        for name, fps in {**load_fingerprints(), **recorded}.items()
    }
    with open(FINGERPRINTS_PATH, "w") as handle:
        json.dump(
            {"seed": FINGERPRINT_SEED, "workloads": workloads},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
