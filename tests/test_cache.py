"""Tests for the shared last-level cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import Cache


class TestBasicBehaviour:
    def test_geometry(self):
        cache = Cache(size_bytes=8 * 1024 * 1024, associativity=8, line_size=64)
        assert cache.num_sets == 16384

    def test_miss_then_hit(self):
        cache = Cache(size_bytes=4096, associativity=2, line_size=64)
        assert not cache.access(0x100, is_write=False).hit
        assert cache.access(0x100, is_write=False).hit
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_different_offsets_hit(self):
        cache = Cache(size_bytes=4096, associativity=2, line_size=64)
        cache.access(0x100, is_write=False)
        assert cache.access(0x13F, is_write=False).hit

    def test_lru_eviction(self):
        cache = Cache(size_bytes=2 * 64, associativity=2, line_size=64)  # one set
        cache.access(0 * 64, False)
        cache.access(1 * 64, False)
        cache.access(0 * 64, False)     # touch line 0 so line 1 is LRU
        cache.access(2 * 64, False)     # evicts line 1
        assert cache.contains(0 * 64)
        assert not cache.contains(1 * 64)

    def test_dirty_eviction_produces_writeback(self):
        cache = Cache(size_bytes=2 * 64, associativity=2, line_size=64)
        cache.access(0 * 64, is_write=True)
        cache.access(1 * 64, is_write=False)
        result = cache.access(2 * 64, is_write=False)  # evicts dirty line 0
        assert result.writeback_address == 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache(size_bytes=2 * 64, associativity=2, line_size=64)
        cache.access(0 * 64, is_write=False)
        cache.access(1 * 64, is_write=False)
        result = cache.access(2 * 64, is_write=False)
        assert result.writeback_address is None

    def test_write_hit_marks_dirty(self):
        cache = Cache(size_bytes=2 * 64, associativity=2, line_size=64)
        cache.access(0 * 64, is_write=False)
        cache.access(0 * 64, is_write=True)
        cache.access(1 * 64, is_write=False)
        result = cache.access(2 * 64, is_write=False)
        assert result.writeback_address == 0

    def test_miss_rate(self):
        cache = Cache(size_bytes=4096, associativity=2, line_size=64)
        assert cache.stats.miss_rate == 0.0
        cache.access(0, False)
        cache.access(0, False)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            Cache(size_bytes=0)
        with pytest.raises(ValueError):
            Cache(size_bytes=1000, associativity=3, line_size=64)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
def test_occupancy_bounded_by_capacity(addresses):
    cache = Cache(size_bytes=8 * 64 * 4, associativity=4, line_size=64)
    total_lines = cache.num_sets * cache.associativity
    for address in addresses:
        cache.access(address, is_write=bool(address % 2))
    assert cache.occupancy() <= total_lines
    assert cache.stats.accesses == len(addresses)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
def test_contains_after_access(addresses):
    cache = Cache(size_bytes=64 * 1024, associativity=8, line_size=64)
    for address in addresses:
        cache.access(address, False)
        assert cache.contains(address)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=64 * 64), min_size=0, max_size=60))
def test_never_evicts_iff_every_line_stays_resident(addresses):
    """``never_evicts`` holds exactly when streaming the addresses evicts nothing."""
    cache = Cache(size_bytes=8 * 64 * 4, associativity=4, line_size=64)
    never_evicts = cache.never_evicts(addresses)
    for address in addresses:
        cache.access(address, is_write=bool(address % 3))
    assert never_evicts == all(cache.contains(address) for address in addresses)
