"""Tests for Chronus (CCU + Chronus Back-Off) and Chronus-PB."""

import pytest

from repro.analysis.security import ANORMAL_CHRONUS
from repro.core.chronus import CCU_ROW_ACCESS_ENERGY_OVERHEAD, Chronus, ChronusPB
from repro.core.counters import CounterSubarray
from repro.core.prac import PRAC


def make_chronus(nrh=1024, nbo=8, num_banks=4, **kwargs):
    return Chronus(nrh=nrh, num_banks=num_banks, nbo=nbo, **kwargs)


class TestConfiguration:
    def test_keeps_baseline_timings(self):
        assert Chronus.requires_prac_timings is False

    def test_act_energy_multiplier_matches_spice_result(self):
        assert Chronus.act_energy_multiplier == pytest.approx(
            1.0 + CCU_ROW_ACCESS_ENERGY_OVERHEAD
        )

    def test_default_nbo_is_secure_bound(self):
        chronus = Chronus(nrh=20, num_banks=4)
        assert chronus.nbo == min(20 - ANORMAL_CHRONUS - 1, 256)

    def test_default_nbo_capped_by_counter_width(self):
        chronus = Chronus(nrh=4096, num_banks=4)
        assert chronus.nbo == 256

    def test_att_sized_for_normal_traffic_window(self):
        chronus = Chronus(nrh=1024, num_banks=4)
        assert chronus.att_entries == ANORMAL_CHRONUS + 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Chronus(nrh=0, num_banks=4)
        with pytest.raises(ValueError):
            Chronus(nrh=64, num_banks=0)


class TestConcurrentCounterUpdate:
    def test_counter_increments_on_activate(self):
        chronus = make_chronus()
        chronus.on_activate(0, 10, 0)
        assert chronus.counters.get(0, 10) == 1

    def test_precharge_does_not_increment(self):
        chronus = make_chronus()
        chronus.on_activate(0, 10, 0)
        chronus.on_precharge(0, 10, 50)
        assert chronus.counters.get(0, 10) == 1

    def test_counter_subarray_capacity_overhead_small(self):
        """The counters that cap Chronus' NBO fit in under 0.1 % of a bank."""
        chronus = Chronus(nrh=4096, num_banks=4)
        assert chronus.nbo == 2 ** CounterSubarray.counter_width_bits
        assert CounterSubarray().capacity_overhead < 0.001


class TestChronusBackoff:
    def test_backoff_asserted_when_row_reaches_threshold(self):
        chronus = make_chronus(nbo=3)
        for cycle in range(3):
            chronus.on_activate(0, 5, cycle)
        assert chronus.backoff_asserted()
        assert chronus.stats.backoffs == 1

    def test_backoff_stays_asserted_until_all_hot_rows_refreshed(self):
        chronus = make_chronus(nbo=2)
        for row in (1, 2):
            chronus.on_activate(0, row, 0)
            chronus.on_activate(0, row, 1)
        assert chronus.pending_hot_rows() == 2
        chronus.on_rfm([0], 10)
        assert chronus.backoff_asserted()
        chronus.on_rfm([0], 20)
        assert not chronus.backoff_asserted()
        assert chronus.pending_hot_rows() == 0

    def test_no_delay_period(self):
        chronus = make_chronus(nbo=2)
        chronus.on_activate(0, 1, 0)
        chronus.on_activate(0, 1, 1)
        chronus.on_rfm([0], 5)
        assert not chronus.backoff_asserted()
        # A new hot row re-asserts the back-off immediately: no delay period.
        chronus.on_activate(0, 2, 6)
        chronus.on_activate(0, 2, 7)
        assert chronus.backoff_asserted()
        assert chronus.activations_until_next_backoff() is None

    def test_rfm_refreshes_hottest_row_per_bank(self):
        chronus = make_chronus(nbo=2)
        chronus.on_activate(0, 1, 0)
        chronus.on_activate(0, 1, 1)
        chronus.on_activate(0, 2, 2)
        chronus.on_activate(0, 2, 3)
        chronus.on_activate(0, 2, 4)
        chronus.on_rfm([0], 10)
        # Row 2 (count 3) is refreshed first.
        assert chronus.counters.get(0, 2) == 0
        assert chronus.counters.get(0, 1) == 2

    def test_rfm_counts_victim_rows(self):
        chronus = make_chronus(nbo=1)
        chronus.on_activate(0, 1, 0)
        chronus.on_activate(1, 5, 0)
        refreshed = chronus.on_rfm([0, 1, 2, 3], 5)
        assert refreshed == 2 * chronus.victim_rows_per_aggressor

    def test_wants_more_rfm_mirrors_backoff(self):
        chronus = make_chronus(nbo=1)
        chronus.on_activate(0, 1, 0)
        assert chronus.wants_more_rfm()
        chronus.on_rfm([0], 1)
        assert not chronus.wants_more_rfm()


class TestBorrowedRefreshAndReset:
    def test_borrowed_refresh_resets_tracked_max(self):
        chronus = make_chronus(nbo=100)
        chronus.on_activate(0, 9, 0)
        chronus.on_periodic_refresh([0], 100)
        assert chronus.stats.borrowed_refreshes == chronus.victim_rows_per_aggressor
        assert chronus.counters.get(0, 9) == 0

    def test_refresh_window_clears_everything(self):
        chronus = make_chronus(nbo=1)
        chronus.on_activate(0, 1, 0)
        chronus.on_refresh_window(100)
        assert not chronus.backoff_asserted()
        assert chronus.counters.get(0, 1) == 0

    def test_storage_same_as_prac(self):
        chronus = Chronus(nrh=256, num_banks=4)
        prac = PRAC(nrh=256, num_banks=4, nbo=4)
        assert chronus.storage_overhead_bits(64, 131072) == prac.storage_overhead_bits(
            64, 131072
        )


class TestChronusPB:
    def test_uses_baseline_timings_but_prac_backoff(self):
        pb = ChronusPB(nrh=1024, num_banks=4)
        assert pb.requires_prac_timings is False
        assert pb.name == "Chronus-PB"
        assert pb.nref == 4

    def test_behaves_like_prac_for_backoff(self):
        pb = ChronusPB(nrh=1024, num_banks=4, nbo=1)
        pb.on_precharge(0, 1, 0)
        assert pb.backoff_asserted()
        for _ in range(4):
            pb.on_rfm([0], 10)
        assert not pb.backoff_asserted()
        # Delay period exists (inherited from PRAC).
        assert pb.activations_until_next_backoff() == 4

    def test_ccu_energy_multiplier(self):
        assert ChronusPB.act_energy_multiplier == Chronus.act_energy_multiplier
