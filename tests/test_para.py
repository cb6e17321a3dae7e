"""Tests for PARA (probabilistic adjacent-row activation)."""

import pytest

from repro.core.factory import build_mechanism
from repro.core.para import PARA, para_refresh_probability


class TestProbabilityDerivation:
    def test_probability_increases_as_nrh_decreases(self):
        assert para_refresh_probability(20) > para_refresh_probability(1024)

    def test_probability_bounded(self):
        for nrh in (1, 20, 1024, 100_000):
            p = para_refresh_probability(nrh)
            assert 0.0 < p <= 1.0

    def test_target_failure_respected(self):
        nrh = 512
        p = para_refresh_probability(nrh, target_failure=1e-15)
        assert (1.0 - p) ** nrh <= 1e-15 * 1.01

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            para_refresh_probability(0)
        with pytest.raises(ValueError):
            para_refresh_probability(100, target_failure=2.0)


class TestPara:
    def test_stateless_storage(self):
        para = PARA(nrh=1024, num_banks=4)
        assert para.storage_overhead_bits(64, 131072) == {}

    def test_deterministic_with_seed(self):
        first = PARA(nrh=64, num_banks=1, seed=7)
        second = PARA(nrh=64, num_banks=1, seed=7)
        for cycle in range(200):
            first.on_activate(0, cycle, cycle)
            second.on_activate(0, cycle, cycle)
        assert first.total_pending_rows() == second.total_pending_rows()

    def test_refresh_rate_tracks_probability(self):
        para = PARA(nrh=1024, num_banks=1, probability=0.25, seed=3)
        activations = 4000
        for cycle in range(activations):
            para.on_activate(0, cycle, cycle)
        pending = para.total_pending_rows()
        assert 0.18 * activations < pending < 0.32 * activations

    def test_refreshes_single_neighbour(self):
        para = PARA(nrh=8, num_banks=1, probability=1.0)
        para.on_activate(0, 100, 0)
        refresh = para.pending_refresh(0)
        assert refresh is not None
        assert refresh.num_rows == 1
        assert refresh.aggressor_row == 100

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            PARA(nrh=64, num_banks=1, probability=0.0)
        with pytest.raises(ValueError):
            PARA(nrh=64, num_banks=1, probability=1.5)

    def test_lower_nrh_queues_more_refreshes(self):
        low = PARA(nrh=32, num_banks=1, seed=1)
        high = PARA(nrh=2048, num_banks=1, seed=1)
        for cycle in range(2000):
            low.on_activate(0, cycle, cycle)
            high.on_activate(0, cycle, cycle)
        assert low.total_pending_rows() > high.total_pending_rows()


def test_factory_seed_selects_the_stream():
    """A built PARA draws the stream of ``PARA(seed=...)`` for its seed."""

    def trace(para: PARA) -> list:
        pending = []
        for cycle in range(300):
            para.on_activate(0, cycle, cycle)
            pending.append(para.total_pending_rows())
        return pending

    built = trace(build_mechanism("PARA", nrh=64, num_banks=1, seed=5).controller)
    assert built == trace(PARA(nrh=64, num_banks=1, seed=5))
    assert built != trace(PARA(nrh=64, num_banks=1, seed=6))
