"""Tests for the sweep aggregation and figure data generators."""

import pytest

from repro.experiments import figures
from repro.experiments.runner import compare, default_mixes
from repro.experiments.sweep import (
    SweepEngine,
    SweepSpec,
    alone_job,
    baseline_job,
    mechanism_job,
)
from repro.system.metrics import normalized_weighted_speedup


ACCESSES = 250

SPEC = SweepSpec(
    mechanisms=("Chronus", "PRAC-4"),
    nrh_values=(1024, 20),
    mixes=(("429.mcf", "401.bzip2"), ("470.lbm",)),
    accesses_per_core=ACCESSES,
)


@pytest.fixture(scope="module")
def results():
    return SweepEngine().run(SPEC)


class TestCompare:
    def test_one_comparison_per_point_in_spec_order(self, results):
        comparisons = compare(SPEC, results)
        assert [(c.mechanism, c.nrh) for c in comparisons] == [
            ("Chronus", 1024), ("Chronus", 20), ("PRAC-4", 1024), ("PRAC-4", 20),
        ]
        keyed = {(c.mechanism, c.nrh): c for c in comparisons}
        assert keyed[("PRAC-4", 20)].mean_normalized_ws <= keyed[("Chronus", 20)].mean_normalized_ws
        assert 0.9 <= keyed[("Chronus", 1024)].normalized_weighted_speedups[0] <= 1.05
        for comparison in comparisons:
            assert len(comparison.normalized_weighted_speedups) == len(SPEC.mixes)
            assert 0.0 < comparison.mean_normalized_ws <= 1.2
            assert comparison.mean_normalized_energy > 0.0

    def test_per_mix_values_follow_spec_mixes(self, results):
        base = SPEC.resolved_base_config()
        mix = SPEC.mixes[1]
        result = results[mechanism_job(base, mix, "PRAC-4", 20, ACCESSES).key]
        baseline = results[baseline_job(base, mix, ACCESSES).key]
        alone = [results[alone_job(base, app, ACCESSES).key].core_ipcs[0] for app in mix]
        point = compare(SPEC, results)[3]
        assert point.normalized_weighted_speedups[1] == normalized_weighted_speedup(
            result.core_ipcs, alone, baseline.core_ipcs
        )
        assert point.normalized_energies[1] == result.energy_nj / baseline.energy_nj
        assert point.backoffs_per_mcycle[1] == result.backoffs_per_million_cycles()

    def test_cold_sweep_looks_each_job_up_once(self):
        spec = SweepSpec(
            mechanisms=("Chronus",), nrh_values=(1024,),
            mixes=(("429.mcf", "401.bzip2"),), accesses_per_core=100,
        )
        engine = SweepEngine()
        compare(spec, engine.run(spec))
        assert engine.cache.lookups == len(spec.expand())
        assert engine.cache.hit_rate() == 0.0

    def test_default_mixes_spread_across_types(self):
        mixes = default_mixes(6)
        assert len(mixes) == 6
        assert len({mix.mix_type for mix in mixes}) == 6
        assert len(default_mixes(3, mix_types=["HHHH"])) == 3


class TestAnalyticalFigures:
    def test_table1(self):
        rows = figures.table1_data()
        assert {row["parameter"] for row in rows} == {"tRAS", "tRP", "tRC", "tRTP", "tWR"}

    def test_fig3a(self):
        rows = figures.fig3a_data(rfm_thresholds=(2, 32), row_set_sizes=(2048, 65536))
        assert len(rows) == 4
        assert all(row["max_acts"] >= 1 for row in rows)

    def test_fig3b(self):
        rows = figures.fig3b_data(backoff_thresholds=(1, 8), nrefs=(1, 4),
                                  row_set_sizes=(2048,))
        assert len(rows) == 4
        by_key = {(r["nbo"], r["nref"]): r["max_acts"] for r in rows}
        assert by_key[(8, 4)] >= by_key[(1, 4)]

    def test_fig11_and_fig13(self):
        fig11 = figures.fig11_data(nrh_values=(1024, 20))
        assert {row["mechanism"] for row in fig11} == set(figures.FIG11_MECHANISMS)
        fig13 = figures.fig13_data(nrh_values=(1024, 20))
        assert {row["mechanism"] for row in fig13} == {"Chronus", "ABACuS"}

    def test_sec11_theory(self):
        rows = figures.sec11_theory_data(nrh_values=(20,))
        by_mechanism = {row["mechanism"]: row for row in rows}
        assert by_mechanism["PRAC-4"]["max_bandwidth_consumption"] > \
            by_mechanism["Chronus"]["max_bandwidth_consumption"]

    def test_appendix_a(self):
        data = figures.appendix_a_data()
        assert data["gate_count"] == 21
        assert data["transistor_count"] == 96
        assert data["functional_mismatches"] == 0
        assert data["fits_within_trc"]

    def test_format_rows(self):
        text = figures.format_rows([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        assert "a" in text and "2.500" in text
        assert figures.format_rows([]) == "(no rows)"


class TestSimulationFigures:
    def test_fig8_data_small(self):
        rows = figures.fig8_data(
            nrh_values=(1024,),
            mechanisms=("Chronus", "PRAC-4"),
            num_mixes=1,
            accesses_per_core=ACCESSES,
        )
        assert len(rows) == 2
        by_mechanism = {row["mechanism"]: row for row in rows}
        assert by_mechanism["Chronus"]["normalized_ws"] >= by_mechanism["PRAC-4"]["normalized_ws"]

    def test_fig9_data_small(self):
        rows = figures.fig9_data(
            nrh=64,
            mechanisms=("Chronus",),
            mixes_per_type=1,
            accesses_per_core=ACCESSES,
        )
        assert len(rows) == len(figures.MIX_TYPES)
        assert all(0.0 < row["normalized_ws"] <= 1.2 for row in rows)
