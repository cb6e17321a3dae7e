"""Batch-vs-scalar engine equivalence.

The batch-vectorized engine (:mod:`repro.experiments.batch`) shares trace
arrays, a pre-decoded address table and pooled LLC / counter / timing-plane
buffers across every config of a batch group.  None of that may change a
single simulated number: these tests pin
byte-identical :class:`~repro.system.metrics.SimulationResult` payloads
against the untouched scalar engine -- the same standard
``tests/test_event_horizon.py`` holds the event-driven engine to against the
cycle-stepped reference, and ``tests/test_counter_backends.py`` holds the
array counter stores to against the dict reference.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factory import MECHANISM_NAMES
from repro.experiments.batch import (
    batch_group_key,
    execute_job_with_plan,
    plan_batches,
    TracePlan,
)
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import (
    SweepEngine,
    SweepSpec,
    execute_job,
    mechanism_job,
)
from repro.system.config import paper_system_config

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300


def _payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestBatchScalarByteIdentity:
    """The pinned config set: every mechanism, one and two channels."""

    @pytest.mark.parametrize("channels", (1, 2))
    def test_all_mechanisms_byte_identical(self, channels):
        base = paper_system_config().with_overrides(channels=channels)
        jobs = [
            mechanism_job(base, APPS, mechanism, 64, ACCESSES)
            for mechanism in MECHANISM_NAMES
        ]
        groups = plan_batches(jobs)
        # One group: the whole mechanism sweep shares one TracePlan, so the
        # pooled buffers are genuinely reused from job to job -- residue
        # from an earlier config would surface as a mismatch below.
        assert len(groups) == 1
        for job, result in groups[0].execute():
            reference = execute_job(job)
            assert _payload(result) == _payload(reference), (
                f"batch result diverged for {job.config.mechanism} "
                f"({channels} channel(s))"
            )

    def test_pool_reuse_within_group_is_stateless(self):
        """Running the same job twice on one plan gives identical payloads."""
        base = paper_system_config()
        job = mechanism_job(base, APPS, "Graphene", 64, ACCESSES)
        plan = TracePlan.build(job)
        first = execute_job_with_plan(job, plan)
        second = execute_job_with_plan(job, plan)
        assert _payload(first) == _payload(second)


class TestBatchGrouping:
    """The grouping rules documented in repro.experiments.batch."""

    def test_mechanism_and_nrh_share_a_group(self):
        base = paper_system_config()
        spec = SweepSpec(
            mechanisms=tuple(MECHANISM_NAMES),
            nrh_values=(64, 128, 256),
            mixes=(APPS,),
            accesses_per_core=ACCESSES,
            base_config=base,
            include_alone=False,
            include_baselines=False,
        )
        jobs = spec.expand()
        groups = plan_batches(jobs)
        assert len(groups) == 1
        assert sum(len(group.jobs) for group in groups) == len(jobs)

    def test_trace_identity_splits_groups(self):
        base = paper_system_config()
        variants = [
            mechanism_job(base, APPS, "None", 64, ACCESSES),
            # Different mix, access budget, seed or topology => new traces
            # or a new memory system => a different group.
            mechanism_job(base, APPS[:1], "None", 64, ACCESSES),
            mechanism_job(base, APPS, "None", 64, ACCESSES + 1),
            mechanism_job(base, APPS, "None", 64, ACCESSES, seed=1),
            mechanism_job(
                base.with_overrides(channels=2), APPS, "None", 64, ACCESSES
            ),
        ]
        keys = {batch_group_key(job) for job in variants}
        assert len(keys) == len(variants)
        assert len(plan_batches(variants)) == len(variants)

    def test_planning_is_deterministic_and_complete(self):
        base = paper_system_config()
        spec = SweepSpec(
            mechanisms=("None", "PARA"),
            nrh_values=(64,),
            mixes=(APPS, APPS[:1]),
            accesses_per_core=ACCESSES,
            base_config=base,
        )
        jobs = spec.expand()
        first = plan_batches(jobs)
        second = plan_batches(jobs)
        assert [g.key for g in first] == [g.key for g in second]
        assert sorted(job.key for group in first for job in group.jobs) == (
            sorted(job.key for job in jobs)
        )


class TestSweepEngineBatchMode:
    """batch=True is a drop-in third execution mode of SweepEngine."""

    def test_engine_batch_results_match_serial(self):
        base = paper_system_config()
        spec = SweepSpec(
            mechanisms=("Graphene", "PARA"),
            nrh_values=(64,),
            mixes=(APPS,),
            accesses_per_core=ACCESSES,
            base_config=base,
            include_alone=False,
        )
        jobs = spec.expand()
        serial = SweepEngine(workers=0).run_jobs(jobs)
        engine = SweepEngine(workers=0, batch=True)
        batched = engine.run_jobs(jobs)
        assert serial.keys() == batched.keys()
        for key in serial:
            assert _payload(serial[key]) == _payload(batched[key])
        # One report shard per batch group, covering every executed job.
        report = engine.last_run_report
        assert report.executed_jobs == len(jobs)
        assert sum(shard.jobs for shard in report.shards) == len(jobs)
        # A second run is served from the cache without re-execution.
        executed_before = engine.executed_jobs
        engine.run_jobs(jobs)
        assert engine.executed_jobs == executed_before
        assert engine.last_run_report.cached_jobs == len(jobs)

    def test_run_jobs_batch_override(self):
        """run_jobs(batch=...) overrides the engine default per call."""
        base = paper_system_config()
        job = mechanism_job(base, APPS[:1], "None", 64, 100)
        engine = SweepEngine(workers=0, batch=True)
        result = engine.run_jobs([job], batch=False)
        assert _payload(result[job.key]) == _payload(execute_job(job))


# Small random configs for the differential test: every drawn point runs a
# full batch and a full scalar simulation, so the budget stays modest; the
# pinned mechanism sweep above covers the breadth dimension.
differential_configs = st.tuples(
    st.sampled_from(MECHANISM_NAMES),
    st.sampled_from((16, 64)),          # nrh
    st.sampled_from((APPS, APPS[:1])),  # mix
    st.integers(50, 200),               # accesses per core
    st.integers(0, 3),                  # trace seed
    st.sampled_from((1, 2)),            # channels
)


class TestBatchDifferential:
    @settings(max_examples=12, deadline=None)
    @given(point=differential_configs)
    def test_random_config_byte_identical(self, point):
        mechanism, nrh, mix, accesses, seed, channels = point
        base = paper_system_config().with_overrides(channels=channels)
        job = mechanism_job(base, mix, mechanism, nrh, accesses, seed=seed)
        plan = TracePlan.build(job)
        assert _payload(execute_job_with_plan(job, plan)) == (
            _payload(execute_job(job))
        )
