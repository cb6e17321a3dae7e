"""A job's set-up is built once per process.

Every mechanism at every N_RH replays the same workload mixes, so
:func:`~repro.experiments.sweep.build_job_traces` serves a job's traces from
a bounded per-process memo (:func:`~repro.experiments.sweep.trace_set`)
keyed by the six job fields they are built from, and the wave-attack bounds
behind PRFM's and PRAC's secure thresholds are memoized too.  The memo may
change no trace and no threshold, a shared trace must be immutable, the
memo must stay within its bounds (sets, and entries per set), and a sweep
over more mixes than it holds must still share it.
"""

import dataclasses
import os
import sys

import pytest

import repro.experiments.sweep as sweep_module
from repro.analysis.security import prfm_max_activations, secure_prfm_threshold
from repro.attacks.patterns import AttackSpec
from repro.core.prfm import PRFM
from repro.cpu.trace import Trace, TraceEntry
from repro.experiments.figures import FIG8_MECHANISMS, NRH_SWEEP, fig7_data
from repro.experiments.runner import default_mixes
from repro.experiments.sweep import (
    TRACE_MEMO_MAX_ENTRIES,
    TRACE_MEMO_SIZE,
    SweepEngine,
    SweepSpec,
    attack_job,
    attack_search_job,
    baseline_job,
    build_job_traces,
    mechanism_job,
    trace_set,
)
from repro.system.config import paper_system_config

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks", "e2e"))
import harness  # noqa: E402

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300
BASE = paper_system_config()

#: Fig. 8's sweep (every mechanism, every N_RH, four mixes) at a small budget.
FIGURE_SPEC = SweepSpec(
    mechanisms=FIG8_MECHANISMS,
    nrh_values=NRH_SWEEP,
    mixes=[mix.applications for mix in default_mixes(4)],
    accesses_per_core=ACCESSES,
)


@pytest.fixture(autouse=True)
def cold_memo():
    trace_set.cache_clear()
    yield
    trace_set.cache_clear()


def _contents(traces):
    return [(trace.name, trace.entries) for trace in traces]


def test_memoized_traces_equal_a_cold_build():
    jobs = [
        job
        for name in harness.WORKLOADS
        for job in harness.job_set(name, 0, 0.25).values()
    ]
    jobs += FIGURE_SPEC.expand()
    memoized = [_contents(build_job_traces(job)) for job in jobs]
    assert trace_set.cache_info().hits > 0
    for job, contents in zip(jobs, memoized):
        trace_set.cache_clear()
        assert _contents(build_job_traces(job)) == contents, job.label


def test_jobs_differing_only_in_mechanism_nrh_or_name_share_traces():
    traces = build_job_traces(mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES))
    for other in (
        mechanism_job(BASE, APPS, "PRAC-4", 1024, ACCESSES),
        mechanism_job(BASE, APPS, "Chronus", 20, ACCESSES),
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES, workload_name="renamed"),
        baseline_job(BASE, APPS, ACCESSES),
    ):
        shared = build_job_traces(other)
        assert shared is not traces  # each job gets its own list
        assert len(shared) == len(traces)
        assert all(mine is theirs for mine, theirs in zip(traces, shared))
    assert trace_set.cache_info().misses == 1


def _single_sided(row):
    return AttackSpec.create("single_sided", {"row": row, "hammer_count": 50})


#: For each of the six key inputs, a job and a job that differs in it alone.
KEY_CHANGES = {
    "attack_accesses": (
        attack_job(BASE, APPS[:1], "Chronus", 1024, ACCESSES, 400),
        attack_job(BASE, APPS[:1], "Chronus", 1024, ACCESSES, 401),
    ),
    "attack": (
        attack_search_job(BASE, "Chronus", 1024, _single_sided(100)),
        attack_search_job(BASE, "Chronus", 1024, _single_sided(101)),
    ),
    "applications": (
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES),
        mechanism_job(BASE, APPS[::-1], "Chronus", 1024, ACCESSES),
    ),
    "accesses_per_core": (
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES),
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES + 1),
    ),
    "organization": (
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES),
        mechanism_job(BASE.with_overrides(channels=2), APPS, "Chronus", 1024, ACCESSES),
    ),
    "seed": (
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES, seed=0),
        mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES, seed=1),
    ),
}


@pytest.mark.parametrize("field", list(KEY_CHANGES))
def test_a_change_to_any_key_input_builds_anew(field):
    job, changed = KEY_CHANGES[field]
    first = build_job_traces(job)
    second = build_job_traces(changed)
    assert trace_set.cache_info().misses == 2
    assert not any(mine is theirs for mine, theirs in zip(first, second))


def test_shared_traces_cannot_be_mutated():
    trace = build_job_traces(mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES))[0]
    assert isinstance(trace.entries, tuple)
    with pytest.raises(TypeError):
        trace.entries[0] = trace.entries[1]
    with pytest.raises(AttributeError):
        trace.entries.append(trace.entries[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.entries[0].address = 0
    # A trace copies the sequence it is given.
    given = [TraceEntry(0, 0), TraceEntry(1, 64)]
    copied = Trace("copied", given)
    given.append(TraceEntry(2, 128))
    assert len(copied) == 2


def test_the_memo_stays_within_its_bound():
    assert trace_set.cache_info().maxsize == TRACE_MEMO_SIZE
    for seed in range(TRACE_MEMO_SIZE + 3):
        build_job_traces(mechanism_job(BASE, APPS, "Chronus", 1024, 50, seed=seed))
        assert trace_set.cache_info().currsize <= TRACE_MEMO_SIZE
    assert trace_set.cache_info().currsize == TRACE_MEMO_SIZE


#: A job of each kind, with the trace entries of its set over every core.
SIZED_JOBS = {
    "mix": (mechanism_job(BASE, APPS, "Chronus", 1024, ACCESSES), 2 * ACCESSES),
    "performance-attack": (
        attack_job(BASE, APPS[:1], "Chronus", 1024, ACCESSES, 400), ACCESSES + 400
    ),
    "attack-spec": (attack_search_job(BASE, "Chronus", 1024, _single_sided(100)), 100),
}


@pytest.mark.parametrize("kind", list(SIZED_JOBS))
def test_a_set_above_the_entry_bound_is_built_without_the_memo(kind, monkeypatch):
    job, entries = SIZED_JOBS[kind]
    expected = _contents(build_job_traces(job))
    assert sum(len(trace) for trace in build_job_traces(job)) == entries
    trace_set.cache_clear()
    build_job_traces(mechanism_job(BASE, APPS, "Chronus", 1024, 50))
    monkeypatch.setattr(sweep_module, "TRACE_MEMO_MAX_ENTRIES", entries - 1)
    assert _contents(build_job_traces(job)) == expected
    assert trace_set.cache_info().currsize == 1
    monkeypatch.setattr(sweep_module, "TRACE_MEMO_MAX_ENTRIES", entries)
    build_job_traces(job)
    assert trace_set.cache_info().currsize == 2


def test_every_benchmark_job_stays_memoized():
    for name in harness.WORKLOADS:
        for job in harness.job_set(name, 0).values():
            entries = sum(len(trace) for trace in build_job_traces(job))
            assert entries <= TRACE_MEMO_MAX_ENTRIES, job.label


def test_a_sweep_over_more_mixes_than_the_memo_holds_still_shares():
    """Fig. 7 sweeps ten single-application mixes, more than the memo's
    eight sets; its jobs run mix by mix, so each mix's traces are built for
    its alone/baseline job and once more for its mechanism jobs."""
    assert TRACE_MEMO_SIZE < 10
    fig7_data(accesses_per_core=50, engine=SweepEngine(workers=0))
    info = trace_set.cache_info()
    assert info.misses <= 20
    assert info.hits >= 100


def test_a_second_prfm_build_reuses_the_bound_evaluations():
    first = PRFM(nrh=1024, num_banks=64)
    misses = prfm_max_activations.cache_info().misses
    second = PRFM(nrh=1024, num_banks=64)
    assert prfm_max_activations.cache_info().misses == misses
    assert first.rfm_threshold == second.rfm_threshold == secure_prfm_threshold(1024) == 80
