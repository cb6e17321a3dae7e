"""Pinned rows of the simulation-backed figure functions.

``tests/golden_figure_rows.json`` holds the rows every simulation figure
function returned at a tiny budget.  Recomputing them on one memory-only
engine pins the aggregation layer -- which jobs each figure reads and how it
normalises them -- independently of how the sweep executes them.  Regenerate
the file with ``PYTHONPATH=src python tests/test_golden_figure_rows.py``
only when a change is meant to move simulated numbers.
"""

import json
import os

import pytest

from repro.experiments import figures
from repro.experiments.sweep import SweepEngine

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_figure_rows.json")

ACCESSES = 150
NRH = (1024, 20)

#: ``name -> (figure function, keyword arguments)``.
CALLS = {
    "fig4": (figures.fig4_data, dict(nrh_values=NRH, num_mixes=2)),
    "fig7": (
        figures.fig7_data,
        dict(nrh_values=(1024, 32), applications=("429.mcf", "470.lbm", "541.leela")),
    ),
    "fig8": (figures.fig8_data, dict(nrh_values=NRH, num_mixes=2)),
    "fig9": (figures.fig9_data, dict(nrh=32, mechanisms=("Chronus", "PRAC-4"))),
    "fig12": (figures.fig12_data, dict(nrh_values=NRH, num_mixes=1)),
    "fig14": (
        figures.fig14_data,
        dict(nrh_values=NRH, applications=("519.lbm", "541.leela")),
    ),
    "table4": (figures.table4_data, dict(nrh_values=NRH, num_mixes=1)),
    "sec11": (
        figures.sec11_simulation_data,
        dict(nrh_values=(128, 20), num_mixes=1, attack_accesses=600),
    ),
}


def compute_rows(name, engine):
    function, kwargs = CALLS[name]
    return function(accesses_per_core=ACCESSES, engine=engine, **kwargs)


def assert_rows_match(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert list(got) == list(want)
        for column, value in want.items():
            if isinstance(value, float):
                assert got[column] == pytest.approx(value, rel=1e-9), column
            else:
                assert type(got[column]) is type(value), column
                assert got[column] == value, column


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def shared_engine():
    return SweepEngine()


def test_golden_file_covers_every_call(golden):
    assert sorted(golden) == sorted(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_figure_rows_match_golden(name, golden, shared_engine):
    assert_rows_match(compute_rows(name, shared_engine), golden[name])


def test_fig8_without_shared_engine_matches_golden(golden):
    assert_rows_match(compute_rows("fig8", None), golden["fig8"])


if __name__ == "__main__":
    engine = SweepEngine()
    rows = {name: compute_rows(name, engine) for name in CALLS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
        handle.write("\n")
