"""Tests for per-row counters, the counter subarray and the ATT."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.core.counters import AggressorTrackingTable, CounterSubarray, PerRowCounters


class TestPerRowCounters:
    def test_increment_and_get(self):
        counters = PerRowCounters(4)
        assert counters.get(0, 10) == 0
        assert counters.increment(0, 10) == 1
        assert counters.increment(0, 10) == 2
        assert counters.get(0, 10) == 2

    def test_banks_are_independent(self):
        counters = PerRowCounters(4)
        counters.increment(0, 10)
        assert counters.get(1, 10) == 0

    def test_reset_row(self):
        counters = PerRowCounters(2)
        counters.increment(0, 5)
        counters.reset_row(0, 5)
        assert counters.get(0, 5) == 0

    def test_reset_all(self):
        counters = PerRowCounters(2)
        counters.increment(0, 1)
        counters.increment(1, 2)
        counters.reset_all()
        assert counters.get(0, 1) == 0
        assert counters.get(1, 2) == 0
        assert list(counters.iter_bank(0)) == list(counters.iter_bank(1)) == []

    def test_memory_follows_activated_rows_not_row_addresses(self):
        # One activation of a high row in each of 64 banks: a layout sized
        # by the highest row would hold 64 x 65,536 slots (~32 MiB).
        tracemalloc.start()
        try:
            counters = PerRowCounters(64)
            for bank_id in range(64):
                counters.increment(bank_id, 65_535)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counters.get(63, 65_535) == 1
        assert peak < 1 << 20

    def test_invalid_bank_count(self):
        with pytest.raises(ValueError):
            PerRowCounters(0)


class TestCounterSubarray:
    def test_paper_reference_geometry(self):
        subarray = CounterSubarray()
        # 128K rows x 8 bits = 128 KB, which fits in 64 rows of 16 Kbit.
        assert subarray.counter_rows_needed == 64
        assert subarray.capacity_overhead == pytest.approx(0.0005, rel=0.05)

    def test_locate_maps_rows_to_distinct_slots(self):
        subarray = CounterSubarray()
        seen = set()
        for row in range(0, 4096, 17):
            location = subarray.locate(row)
            assert location not in seen
            seen.add(location)

    def test_locate_bounds(self):
        subarray = CounterSubarray()
        with pytest.raises(ValueError):
            subarray.locate(subarray.rows_per_bank)

    def test_counters_per_row(self):
        subarray = CounterSubarray()
        counter_row, offset = subarray.locate(0)
        assert (counter_row, offset) == (0, 0)
        per_row = subarray.row_size_bits // subarray.counter_width_bits
        assert subarray.locate(per_row) == (1, 0)


class TestAggressorTrackingTable:
    def test_insert_until_full(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        assert len(att) == 2
        assert att.max_entry().row == 1

    def test_update_existing_row(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(1, 9)
        assert att.max_entry().count == 9
        assert len(att) == 1

    def test_replaces_lowest_when_exceeded(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        att.update(3, 4)  # exceeds the lowest entry (row 2, count 3)
        rows = set(att.tracked_rows())
        assert rows == {1, 3}

    def test_does_not_replace_when_not_exceeding(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        att.update(3, 2)
        assert set(att.tracked_rows()) == {1, 2}

    def test_invalidate_frees_slot(self):
        att = AggressorTrackingTable(2)
        att.update(1, 5)
        att.update(2, 3)
        att.invalidate(1)
        assert len(att) == 1
        att.update(3, 1)
        assert set(att.tracked_rows()) == {2, 3}

    def test_max_entry_none_when_empty(self):
        att = AggressorTrackingTable(4)
        assert att.max_entry() is None

    def test_valid_entries_sorted_descending(self):
        att = AggressorTrackingTable(3)
        att.update(1, 5)
        att.update(2, 9)
        att.update(3, 7)
        counts = [entry.count for entry in att.valid_entries()]
        assert counts == sorted(counts, reverse=True)

    def test_clear(self):
        att = AggressorTrackingTable(3)
        att.update(1, 1)
        att.clear()
        assert len(att) == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AggressorTrackingTable(0)


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 100)), min_size=1, max_size=200))
def test_att_tracks_at_most_capacity(updates):
    att = AggressorTrackingTable(4)
    for row, count in updates:
        att.update(row, count)
    assert len(att) <= 4


@given(st.lists(st.integers(0, 5), min_size=1, max_size=300))
def test_per_row_counters_match_reference_counts(rows):
    counters = PerRowCounters(1)
    reference = {}
    for row in rows:
        counters.increment(0, row)
        reference[row] = reference.get(row, 0) + 1
    for row, count in reference.items():
        assert counters.get(0, row) == count
