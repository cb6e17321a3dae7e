"""Simulation jobs are isolated from one another.

The serial sweep engine runs job after job in one process and memoises
every result under its content-addressed key, so a result may depend on
its job alone.  The hot path shares a few module-level objects (the
router's empty completion list, the LLC's pooled hit result); none of
them may carry state from one simulator into the next.  For every
mechanism on one and two channels:

1. re-running a job after a different job in the same process reproduces
   its payload byte for byte;
2. simulating leaves the input traces untouched, and simulating the same
   trace objects again gives the same payload, so one trace list can serve
   several jobs;
3. the payload survives the on-disk result cache unchanged.
"""

import json
from dataclasses import dataclass
from typing import List

import pytest

from repro.core.factory import MECHANISM_NAMES
from repro.cpu.trace import Trace
from repro.experiments.cache import ResultCache, result_to_dict
from repro.experiments.sweep import (
    SimJob,
    build_job_traces,
    execute_job,
    mechanism_job,
)
from repro.system.config import paper_system_config
from repro.system.metrics import SimulationResult
from repro.system.simulator import simulate

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300


def _payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


def _snapshot(traces) -> list:
    return [(trace.name, tuple(trace.entries)) for trace in traces]


@dataclass
class FirstRun:
    """A job's first simulation in this module, with its inputs."""

    job: SimJob
    traces: List[Trace]
    snapshot: list
    result: SimulationResult
    payload: str


@pytest.fixture(scope="module")
def first_run():
    """Simulate each (mechanism, channels) job once per module."""
    runs = {}

    def run(mechanism: str, channels: int) -> FirstRun:
        if (mechanism, channels) not in runs:
            base = paper_system_config().with_overrides(channels=channels)
            job = mechanism_job(base, APPS, mechanism, 64, ACCESSES)
            traces = build_job_traces(job)
            snapshot = _snapshot(traces)
            result = simulate(job.config, traces, workload_name=job.workload_name)
            runs[mechanism, channels] = FirstRun(
                job, traces, snapshot, result, _payload(result)
            )
        return runs[mechanism, channels]

    return run


@pytest.mark.parametrize("channels", (1, 2))
@pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
class TestJobIsolation:
    def test_rerun_after_other_job_matches(self, first_run, mechanism, channels):
        first = first_run(mechanism, channels)
        # A different mechanism, mix and N_RH simulates in between.
        index = MECHANISM_NAMES.index(mechanism)
        other = MECHANISM_NAMES[(index + 1) % len(MECHANISM_NAMES)]
        execute_job(mechanism_job(first.job.config, APPS[:1], other, 20, 100))
        assert _payload(execute_job(first.job)) == first.payload

    def test_traces_unchanged_and_reusable(self, first_run, mechanism, channels):
        first = first_run(mechanism, channels)
        assert _snapshot(first.traces) == first.snapshot
        again = simulate(
            first.job.config, first.traces, workload_name=first.job.workload_name
        )
        assert _payload(again) == first.payload

    def test_payload_survives_disk_cache(
        self, first_run, mechanism, channels, tmp_path
    ):
        first = first_run(mechanism, channels)
        ResultCache(str(tmp_path)).put(
            first.job.key, first.result, first.job.cache_payload()
        )
        cached = ResultCache(str(tmp_path)).get(first.job.key)
        assert cached is not None
        assert _payload(cached) == first.payload
