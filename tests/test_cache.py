"""Tests for the shared last-level cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu.cache import Cache, CacheAccessResult, CacheStats


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


def allocated_sets(cache):
    return [index for index, cache_set in enumerate(cache._sets) if cache_set is not None]


class EagerCache:
    """Reference LLC that allocates every set's dict up front.

    Same placement, LRU order, eviction and write-back rules as
    :class:`Cache`; only the set allocation differs.
    """

    def __init__(self, size_bytes, associativity, line_size):
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = size_bytes // (associativity * line_size)
        self._sets = [{} for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, address, is_write):
        line = address // self.line_size
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]
        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            cache_set[tag] = dirty or is_write
            self.stats.hits += 1
            return CacheAccessResult(hit=True)
        self.stats.misses += 1
        writeback_address = None
        if len(cache_set) >= self.associativity:
            victim_tag = next(iter(cache_set))
            if cache_set.pop(victim_tag):
                writeback_address = (victim_tag * self.num_sets + set_index) * self.line_size
                self.stats.writebacks += 1
        cache_set[tag] = is_write
        return CacheAccessResult(hit=False, writeback_address=writeback_address)

    def access_if_hit(self, address, is_write):
        line = address // self.line_size
        cache_set = self._sets[line % self.num_sets]
        if line // self.num_sets not in cache_set:
            return None
        return self.access(address, is_write)


class TestLazySets:
    """A set's dict is allocated by the first miss that fills it."""

    def test_fresh_cache_allocates_no_set(self):
        cache = Cache()
        assert allocated_sets(cache) == []
        assert cache.occupancy() == 0

    def test_reads_allocate_no_set(self):
        cache = Cache(size_bytes=4096, associativity=2, line_size=64)
        assert not cache.contains(0x100)
        assert cache.access_if_hit(0x100, is_write=True) is None
        assert cache.occupancy() == 0
        assert not cache.never_evicts(range(0, 64 * 1024, 64))
        assert allocated_sets(cache) == []
        assert cache.stats == CacheStats()

    def test_miss_allocates_exactly_its_own_set(self):
        cache = Cache(size_bytes=4096, associativity=2, line_size=64)
        line = 0x100 // 64
        assert not cache.access(0x100, is_write=False).hit
        assert allocated_sets(cache) == [line % cache.num_sets]
        assert cache.access_if_hit(0x100, is_write=False).hit
        assert allocated_sets(cache) == [line % cache.num_sets]


#: One operation of a stream: (line, is_write, probe with access_if_hit first).
OPERATIONS = st.tuples(st.integers(0, 63), st.booleans(), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.lists(OPERATIONS, min_size=1, max_size=120))
def test_lazy_sets_match_the_eager_reference(operations):
    """4 sets x 2 ways over 64 lines: every access result, the stats and each
    set's contents in LRU order equal the eagerly allocated cache's."""
    geometry = dict(size_bytes=4 * 2 * 64, associativity=2, line_size=64)
    lazy, eager = Cache(**geometry), EagerCache(**geometry)
    for line, is_write, probe_first in operations:
        address = line * 64 + line % 64
        if probe_first:
            assert lazy.access_if_hit(address, is_write) == eager.access_if_hit(
                address, is_write
            )
        assert lazy.access(address, is_write) == eager.access(address, is_write)
        assert lazy.stats == eager.stats
    assert [list((cache_set or {}).items()) for cache_set in lazy._sets] == [
        list(cache_set.items()) for cache_set in eager._sets
    ]
