"""Self-check of the end-to-end benchmark's tracer and round runner.

Runs shrunken versions of the four workloads through the same
:func:`harness.run_round` the benchmark's child processes use, once
untraced and once traced, and checks that the tracer counts what the
simulator did, changes no simulated result, has no stale span and accounts
for the whole round.
"""

from __future__ import annotations

import json
import os

import pytest

import harness

#: Input scale of each shrunken workload: the module takes about 6 s on a
#: 2-CPU container.  The wave needs 10 rounds per row before Graphene acts.
SCALES = {"benign-4core": 0.25, "perf-attack": 0.25, "wave": 0.5, "fig-sweep": 0.25}


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    work_dir = str(tmp_path_factory.mktemp("e2e"))
    return {
        name: (
            harness.run_round(name, 0, SCALES[name], traced=False, work_dir=work_dir),
            harness.run_round(name, 0, SCALES[name], traced=True, work_dir=work_dir),
        )
        for name in harness.WORKLOADS
    }


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_device_calls_equal_command_counts(rounds, name):
    _untraced, traced = rounds[name]
    assert traced["command_counts"]
    assert harness.trace_mismatches(traced) == []


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tracing_moves_no_fingerprint(rounds, name):
    untraced, traced = rounds[name]
    assert untraced["errors"] == {} and traced["errors"] == {}
    assert traced["fingerprints"] == untraced["fingerprints"]


def test_every_registered_span_fires_on_some_workload(rounds):
    fired = {
        span.name
        for _untraced, traced in rounds.values()
        for span in harness.layer_spans()
        if traced["layers"][f"{span.name}.calls"]
    }
    assert sorted(s.name for s in harness.layer_spans() if s.name not in fired) == []


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_spans_cover_the_traced_round(rounds, name):
    _untraced, traced = rounds[name]
    assert traced["layers"]["trace.coverage"] == pytest.approx(1.0, abs=0.05)


def test_benchmark_json_names_only_measured_metrics(rounds):
    path = os.path.join(harness.REPO_ROOT, "BENCHMARK.json")
    with open(path) as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == list(harness.WORKLOADS)
    untraced, traced = rounds["wave"]
    for metric in benchmark["end_to_end"]:
        assert untraced[metric["name"]] > 0, metric["name"]
    # trace.overhead needs the untraced rounds too, so only run.py computes it.
    produced = set(traced["layers"]) | {"trace.overhead"}
    for metric in benchmark["per_layer"]:
        assert metric["name"] in produced, metric["name"]
        assert metric["unit"] == harness.layer_unit(metric["name"]), metric["name"]


def test_gates_reject_idle_or_indistinct_mechanisms():
    acting = {"backoffs_observed": 3, "rfms": 5, "preventive_refresh_rows": 8}
    fingerprints = {
        "PRAC-1": dict(acting, cycles=1),
        "PRAC-4": dict(acting, cycles=1),  # indistinct from PRAC-1
        "Chronus": dict(acting, cycles=2, backoffs_observed=0),
        "Chronus-PB": dict(acting, cycles=3),
        "PRFM": dict(acting, cycles=4, rfms=0),
    }
    failures = harness.WORKLOADS["perf-attack"].gate(fingerprints)
    assert sorted(failures) == ["Chronus", "PRAC-1", "PRAC-4", "PRFM"]
    idle = harness.WORKLOADS["benign-4core"].gate({"None/ch1": acting})
    assert list(idle) == ["None/ch1"]
