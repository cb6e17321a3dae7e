"""Shared last-level cache model.

The paper's simulated system (Table 2) uses an 8 MiB, 8-way set-associative
shared LLC with 64-byte lines.  The Appendix E experiments (Fig. 14 / 15)
use a much larger LLC, which makes the SPEC-2017-like workloads cache
resident; the cache size is therefore a first-class configuration knob.

The model is a write-back, write-allocate, LRU cache.  It returns, per
access, whether the access hit and the address of any dirty victim line that
must be written back to DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(slots=True)
class CacheAccessResult:
    """Outcome of one cache access."""

    hit: bool
    #: Physical address of a dirty line evicted by this access (or None).
    writeback_address: Optional[int] = None


#: Shared "hit, no writeback" result returned by ``access_if_hit``.
#: Treated as immutable by contract (dataclass fields stay writable, but no
#: caller ever assigns to them).
_POOLED_HIT = CacheAccessResult(hit=True)


@dataclass(slots=True)
class CacheStats:
    """Hit / miss / writeback counters."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class Cache:
    """A set-associative, write-back, write-allocate LRU cache."""

    def __init__(
        self,
        size_bytes: int = 8 * 1024 * 1024,
        associativity: int = 8,
        line_size: int = 64,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0 or line_size <= 0:
            raise ValueError("cache geometry values must be positive")
        if size_bytes % (associativity * line_size) != 0:
            raise ValueError("cache size must be a multiple of way size")
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.num_sets = size_bytes // (associativity * line_size)
        # Each set maps tag -> dirty flag, ordered LRU -> MRU.  Plain dicts
        # preserve insertion order, so delete-and-reinsert moves a tag to the
        # MRU end and ``next(iter(set))`` is the LRU victim -- same policy as
        # an OrderedDict, minus its per-node overhead on this hot path.
        self._sets: List[Dict[int, bool]] = [
            dict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Address helpers
    # ------------------------------------------------------------------ #
    def _locate(self, address: int) -> tuple[int, int]:
        line = address // self.line_size
        set_index = line % self.num_sets
        tag = line // self.num_sets
        return set_index, tag

    def _rebuild_address(self, set_index: int, tag: int) -> int:
        return (tag * self.num_sets + set_index) * self.line_size

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def access(self, address: int, is_write: bool) -> CacheAccessResult:
        """Access ``address``; allocate on miss; return hit status + writeback."""
        line = address // self.line_size
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]

        dirty = cache_set.pop(tag, None)
        if dirty is not None:
            # Reinsert at the MRU end (dicts preserve insertion order).
            cache_set[tag] = dirty or is_write
            self.stats.hits += 1
            return CacheAccessResult(hit=True)

        self.stats.misses += 1
        writeback_address: Optional[int] = None
        if len(cache_set) >= self.associativity:
            victim_tag = next(iter(cache_set))
            victim_dirty = cache_set.pop(victim_tag)
            if victim_dirty:
                writeback_address = self._rebuild_address(set_index, victim_tag)
                self.stats.writebacks += 1
        cache_set[tag] = is_write
        return CacheAccessResult(hit=False, writeback_address=writeback_address)

    def contains(self, address: int) -> bool:
        """True if the line holding ``address`` is currently cached."""
        set_index, tag = self._locate(address)
        return tag in self._sets[set_index]

    def access_if_hit(self, address: int, is_write: bool) -> Optional[CacheAccessResult]:
        """Perform the access only if it hits; ``None`` (and no state
        change) on a miss.

        The dispatch path probes before allocating (a failed dispatch must
        be side-effect-free); this fuses that probe with the hit access so
        the common LLC-hit case locates the set once instead of twice.
        Callers only read ``writeback_address`` (always ``None`` for a hit)
        and never mutate or retain the result, so one shared immortal
        instance replaces a per-hit allocation.
        """
        line = address // self.line_size
        set_index = line % self.num_sets
        tag = line // self.num_sets
        cache_set = self._sets[set_index]
        dirty = cache_set.pop(tag, None)
        if dirty is None:
            return None
        cache_set[tag] = dirty or is_write
        self.stats.hits += 1
        return _POOLED_HIT

    def occupancy(self) -> int:
        """Number of valid lines currently stored."""
        return sum(len(cache_set) for cache_set in self._sets)

    def reset(self) -> None:
        """Invalidate the entire cache and clear statistics."""
        for cache_set in self._sets:
            cache_set.clear()
        self.stats = CacheStats()
