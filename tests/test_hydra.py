"""Tests for Hydra (hybrid GCT / RCC / RCT tracking)."""

import pytest

from repro.core.hydra import Hydra, RowCountCache


class TestRowCountCache:
    def test_miss_then_hit(self):
        rcc = RowCountCache(2)
        assert not rcc.access((0, 1))
        assert rcc.access((0, 1))
        assert rcc.hits == 1 and rcc.misses == 1

    def test_lru_eviction(self):
        rcc = RowCountCache(2)
        rcc.access((0, 1))
        rcc.access((0, 2))
        rcc.access((0, 1))  # touch 1 so 2 becomes LRU
        rcc.access((0, 3))  # evicts 2
        assert not rcc.access((0, 2))

    def test_capacity_respected(self):
        rcc = RowCountCache(4)
        for i in range(10):
            rcc.access((0, i))
        assert len(rcc) == 4

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RowCountCache(0)

    def test_clear(self):
        rcc = RowCountCache(2)
        rcc.access((0, 1))
        rcc.clear()
        assert len(rcc) == 0 and rcc.misses == 0


class TestHydra:
    def make(self, nrh=64, **kwargs):
        # These tests pin the update rules via the internal GCT/RCT mappings.
        defaults = dict(num_banks=2, group_size=4, rcc_entries=8)
        defaults.update(kwargs)
        return Hydra(nrh=nrh, **defaults)

    def test_thresholds_derived_from_nrh(self):
        hydra = self.make(nrh=64)
        assert hydra.group_threshold == 16
        assert hydra.row_threshold == 32

    def test_no_per_row_tracking_below_group_threshold(self):
        hydra = self.make()
        for cycle in range(hydra.group_threshold - 1):
            hydra.on_activate(0, cycle % 4, cycle)
        assert not hydra._tracked_groups
        assert hydra.total_pending_rows() == 0

    def test_group_promotion_initialises_rows(self):
        hydra = self.make()
        for cycle in range(hydra.group_threshold):
            hydra.on_activate(0, 0, cycle)
        assert (0, 0) in hydra._tracked_groups
        assert hydra._rct[(0, 1)] == hydra.group_threshold

    def test_rcc_miss_generates_dram_traffic(self):
        hydra = self.make()
        for cycle in range(hydra.group_threshold):
            hydra.on_activate(0, 0, cycle)
        before = hydra.rct_dram_accesses
        hydra.on_activate(0, 1, 100)  # first per-row access to row 1: RCC miss
        assert hydra.rct_dram_accesses == before + 1

    def test_row_threshold_triggers_victim_refresh(self):
        hydra = self.make(nrh=16)  # group threshold 4, row threshold 8
        for cycle in range(4):
            hydra.on_activate(0, 0, cycle)
        # Row 0 starts from the group threshold (4); four more activations
        # reach the row threshold (8).
        for cycle in range(4, 8):
            hydra.on_activate(0, 0, cycle)
        refreshes = []
        while True:
            refresh = hydra.pop_refresh(0)
            if refresh is None:
                break
            refreshes.append(refresh)
        assert any(r.num_rows == hydra.victim_rows_per_aggressor for r in refreshes)

    def test_counter_resets_after_refresh(self):
        hydra = self.make(nrh=16)
        for cycle in range(8):
            hydra.on_activate(0, 0, cycle)
        assert hydra._rct[(0, 0)] == 0

    def test_refresh_window_clears_state(self):
        hydra = self.make()
        for cycle in range(hydra.group_threshold):
            hydra.on_activate(0, 0, cycle)
        hydra.on_refresh_window(1000)
        assert not hydra._tracked_groups
        assert not hydra._gct
        assert not hydra._rct

    def test_storage_split_between_dram_and_sram(self):
        hydra = Hydra(nrh=1024, num_banks=64)
        bits = hydra.storage_overhead_bits(64, 131072)
        assert bits["dram_bits"] > 0
        assert bits["sram_bits"] > 0
        assert bits["dram_bits"] > bits["sram_bits"]

    def test_dram_storage_shrinks_with_nrh(self):
        big = Hydra(nrh=1024, num_banks=64).storage_overhead_bits(64, 131072)["dram_bits"]
        small = Hydra(nrh=20, num_banks=64).storage_overhead_bits(64, 131072)["dram_bits"]
        assert small < big

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Hydra(nrh=64, num_banks=0)
        with pytest.raises(ValueError):
            Hydra(nrh=64, num_banks=1, group_size=0)
