"""Tests for Graphene (Misra-Gries tracking)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.timing import BASE_NS
from repro.core.graphene import (
    DEFAULT_RESET_WINDOW_ACTIVATIONS,
    Graphene,
    MisraGriesTable,
    graphene_table_entries,
    graphene_trigger_threshold,
)


class TestMisraGriesTable:
    def test_tracked_rows_count_exactly(self):
        table = MisraGriesTable(4)
        for _ in range(5):
            table.observe(1)
        assert table.entries[1].count == 5

    def test_spillover_increments_on_miss_when_full(self):
        table = MisraGriesTable(2)
        table.observe(1)
        table.observe(2)
        table.observe(3)
        assert table.spillover == 1

    def test_swap_replaces_minimum_entry(self):
        table = MisraGriesTable(2)
        for _ in range(5):
            table.observe(1)
        table.observe(2)
        # Row 3 arrives repeatedly; once the spillover catches the minimum
        # entry's count it takes its slot.
        for _ in range(3):
            table.observe(3)
        assert 1 in table.entries  # the heavy hitter is never evicted
        assert table.max_count() >= 5

    def test_reset(self):
        table = MisraGriesTable(2)
        table.observe(1)
        table.reset()
        assert not table.entries
        assert table.spillover == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            MisraGriesTable(0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=400))
def test_misra_gries_undercount_bound(accesses):
    """Misra-Gries guarantee: estimate >= true count - spillover."""
    table = MisraGriesTable(4)
    true_counts = {}
    for row in accesses:
        table.observe(row)
        true_counts[row] = true_counts.get(row, 0) + 1
    for row, entry in table.entries.items():
        assert entry.count >= true_counts[row] - table.spillover
        assert entry.count <= true_counts[row] + table.spillover + 1


class TestGrapheneConfiguration:
    def test_threshold_is_half_nrh(self):
        assert graphene_trigger_threshold(1024) == 512
        assert graphene_trigger_threshold(20) == 10

    def test_table_grows_as_nrh_shrinks(self):
        assert graphene_table_entries(20) > graphene_table_entries(1024)

    def test_default_reset_window_is_half_a_refresh_window(self):
        assert DEFAULT_RESET_WINDOW_ACTIVATIONS == int(
            BASE_NS["tREFW"] / 2 / BASE_NS["tRC"]
        )
        assert DEFAULT_RESET_WINDOW_ACTIVATIONS == 340_425
        graphene = Graphene(nrh=1024, num_banks=2)
        assert graphene.table_entries == graphene_table_entries(1024)
        assert graphene.table_entries == -(-DEFAULT_RESET_WINDOW_ACTIVATIONS // 512) + 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            Graphene(nrh=1024, num_banks=0)


class TestGrapheneBehaviour:
    def test_refresh_queued_when_threshold_crossed(self):
        graphene = Graphene(nrh=8, num_banks=2, table_entries=8)
        threshold = graphene.trigger_threshold
        for cycle in range(threshold - 1):
            graphene.on_activate(0, 5, cycle)
        assert graphene.pending_refresh(0) is None
        graphene.on_activate(0, 5, threshold)
        refresh = graphene.pending_refresh(0)
        assert refresh is not None
        assert refresh.aggressor_row == 5
        assert refresh.num_rows == graphene.victim_rows_per_aggressor

    def test_refresh_triggers_again_after_another_threshold(self):
        graphene = Graphene(nrh=8, num_banks=1, table_entries=8)
        threshold = graphene.trigger_threshold
        for cycle in range(2 * threshold):
            graphene.on_activate(0, 5, cycle)
        assert graphene.total_pending_rows() == 2 * graphene.victim_rows_per_aggressor

    def test_banks_tracked_independently(self):
        graphene = Graphene(nrh=8, num_banks=2, table_entries=8)
        threshold = graphene.trigger_threshold
        for cycle in range(threshold):
            graphene.on_activate(1, 7, cycle)
        assert graphene.pending_refresh(0) is None
        assert graphene.pending_refresh(1) is not None

    def test_refresh_window_resets_tables(self):
        graphene = Graphene(nrh=8, num_banks=1, table_entries=4)
        graphene.on_activate(0, 1, 0)
        graphene.on_refresh_window(100)
        assert graphene.tables[0].entries == {}

    def test_storage_grows_as_nrh_shrinks(self):
        big = Graphene(nrh=20, num_banks=64).storage_overhead_bits(64, 131072)["cam_bits"]
        small = Graphene(nrh=1024, num_banks=64).storage_overhead_bits(64, 131072)["cam_bits"]
        assert big > 10 * small
