"""Tests for PRAC-N (back-off protocol, ATT refreshes, delay period)."""

import pytest

from repro.core.prac import PRAC, counter_width_bits


def make_prac(nrh=1024, nbo=4, nref=4, num_banks=4, **kwargs):
    return PRAC(nrh=nrh, num_banks=num_banks, nref=nref, nbo=nbo, **kwargs)


class TestConfiguration:
    def test_default_secure_nbo_at_1k(self):
        prac = PRAC(nrh=1024, num_banks=4, nref=4)
        assert prac.is_secure
        assert 1 <= prac.nbo < 1024

    def test_lower_nrh_means_lower_nbo(self):
        high = PRAC(nrh=1024, num_banks=4, nref=4)
        low = PRAC(nrh=64, num_banks=4, nref=4)
        assert low.nbo < high.nbo

    def test_insecure_fallback(self):
        prac = PRAC(nrh=2, num_banks=4, nref=1)
        assert not prac.is_secure
        assert prac.nbo == 1

    def test_requires_prac_timings(self):
        assert PRAC.requires_prac_timings is True

    def test_name_includes_nref(self):
        assert make_prac(nref=2).name == "PRAC-2"

    def test_delay_period_is_nref(self):
        """JESD79-5c ties the delay period (NDelay) to NRef."""
        for nref in (1, 2, 4):
            prac = make_prac(nbo=1, nref=nref)
            prac.on_precharge(0, 1, 0)
            for _ in range(nref):
                prac.on_rfm([0], 5)
            assert prac.activations_until_next_backoff() == nref

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PRAC(nrh=0, num_banks=4)
        with pytest.raises(ValueError):
            PRAC(nrh=64, num_banks=0)
        with pytest.raises(ValueError):
            PRAC(nrh=64, num_banks=4, nref=0)


class TestCounting:
    def test_counter_increments_on_precharge(self):
        prac = make_prac()
        prac.on_activate(0, 10, 0)
        assert prac.counters.get(0, 10) == 0
        prac.on_precharge(0, 10, 50)
        assert prac.counters.get(0, 10) == 1

    def test_att_tracks_precharged_rows(self):
        prac = make_prac()
        for cycle, row in enumerate((5, 6, 5)):
            prac.on_precharge(0, row, cycle)
        entry = prac.att[0].max_entry()
        assert entry.row == 5
        assert entry.count == 2


class TestBackoffProtocol:
    def test_backoff_asserted_at_threshold(self):
        prac = make_prac(nbo=3)
        for i in range(2):
            prac.on_precharge(0, 42, i)
        assert not prac.backoff_asserted()
        prac.on_precharge(0, 42, 2)
        assert prac.backoff_asserted()
        assert prac.stats.backoffs == 1

    def test_backoff_not_reasserted_while_pending(self):
        prac = make_prac(nbo=1)
        prac.on_precharge(0, 1, 0)
        prac.on_precharge(0, 2, 1)
        assert prac.stats.backoffs == 1

    def test_recovery_needs_nref_rfms(self):
        prac = make_prac(nbo=1, nref=2)
        prac.on_precharge(0, 1, 0)
        assert prac.wants_more_rfm()
        prac.on_rfm([0, 1, 2, 3], 10)
        assert prac.wants_more_rfm()
        prac.on_rfm([0, 1, 2, 3], 20)
        assert not prac.wants_more_rfm()
        assert not prac.backoff_asserted()
        assert prac.stats.rfm_commands == 2

    def test_rfm_refreshes_att_max_and_resets_counter(self):
        prac = make_prac(nbo=2)
        prac.on_precharge(0, 7, 0)
        prac.on_precharge(0, 7, 1)
        assert prac.backoff_asserted()
        refreshed = prac.on_rfm([0], 10)
        assert refreshed == prac.victim_rows_per_aggressor
        assert prac.counters.get(0, 7) == 0
        assert prac.att[0].max_entry() is None

    def test_rfm_covers_multiple_banks(self):
        prac = make_prac(nbo=1)
        prac.on_precharge(0, 1, 0)
        prac.on_precharge(1, 2, 1)
        refreshed = prac.on_rfm([0, 1, 2, 3], 5)
        # Banks 0 and 1 have tracked aggressors; banks 2 and 3 are empty.
        assert refreshed == 2 * prac.victim_rows_per_aggressor

    def test_delay_period_blocks_reassertion(self):
        prac = make_prac(nbo=1, nref=3)
        prac.on_precharge(0, 1, 0)
        for _ in range(3):
            prac.on_rfm([0], 5)
        assert not prac.backoff_asserted()
        # A row above the threshold exists, but the delay period holds.
        prac.on_precharge(0, 2, 6)
        assert not prac.backoff_asserted()
        assert prac.activations_until_next_backoff() == 3
        prac.on_activate(0, 3, 7)
        prac.on_activate(0, 3, 8)
        assert not prac.backoff_asserted()
        prac.on_activate(0, 3, 9)
        # Delay expired and a tracked row is at/above the threshold.
        assert prac.backoff_asserted()
        assert prac.stats.backoffs == 2

    def test_no_reassert_when_nothing_hot(self):
        prac = make_prac(nbo=10, nref=1)
        prac._delay_acts_remaining = 1
        prac.on_activate(0, 3, 0)
        assert not prac.backoff_asserted()


class TestBorrowedRefresh:
    def test_every_other_ref_refreshes_att_max(self):
        prac = make_prac(nbo=100)
        prac.on_precharge(0, 9, 0)
        prac.on_periodic_refresh([0, 1], 100)
        assert prac.stats.borrowed_refreshes == prac.victim_rows_per_aggressor
        assert prac.counters.get(0, 9) == 0
        # Second REF of the pair does nothing.
        prac.on_precharge(0, 11, 200)
        prac.on_periodic_refresh([0, 1], 300)
        assert prac.counters.get(0, 11) == 1


class TestHousekeeping:
    def test_refresh_window_resets_counters(self):
        prac = make_prac(nbo=100)
        prac.on_precharge(0, 1, 0)
        prac.on_refresh_window(1000)
        assert prac.counters.get(0, 1) == 0
        assert prac.att[0].max_entry() is None

    def test_storage_overhead_scales_with_rows(self):
        prac = make_prac(nrh=1024)
        bits = prac.storage_overhead_bits(num_banks=64, rows_per_bank=131072)
        assert bits["dram_bits"] == 64 * 131072 * counter_width_bits(1024)

    def test_counter_width_bits(self):
        assert counter_width_bits(1024) == 11
        assert counter_width_bits(20) == 6
        with pytest.raises(ValueError):
            counter_width_bits(0)
