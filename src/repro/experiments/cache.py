"""Persistent, content-addressed simulation-result cache.

Every simulation the experiment harness runs is fully determined by its
:class:`~repro.experiments.sweep.SimJob` -- the complete
:class:`~repro.system.config.SystemConfig`, the applications of the mix, the
per-core access budget and the seed.  The cache therefore keys each
:class:`~repro.system.metrics.SimulationResult` by the SHA-256 digest of the
canonical JSON encoding of that description and stores the result as a small
JSON document on disk:

``<cache-dir>/<key[:2]>/<key>.json``

Two layers back the lookup:

1. an **in-memory layer** (always on), which guarantees that repeated
   lookups within one process return the *same* result object, and
2. an optional **on-disk layer**, which survives across processes so that
   re-running a figure benchmark or a CLI sweep is served without
   re-simulating anything.

Entries are written atomically (temp file + ``os.replace``) so a crashed or
interrupted run never leaves a half-written entry behind; a corrupted or
schema-incompatible entry is deleted and treated as a miss, so the cache is
self-healing.

Concurrency: the store is safe for many concurrent writer *processes* by
construction -- every entry lives in its own file and lands via an atomic
rename, so there is no read-modify-write window anywhere (a monolithic
single-JSON store would lose entries when two workers flush simultaneously;
``tests/test_result_cache_concurrency.py`` pins this property with a
multi-process stress test).  Sweep workers exploit it by streaming each finished result straight
to disk from the worker process (see
:meth:`~repro.experiments.sweep.SweepEngine.run_jobs`); the parent then
:meth:`~ResultCache.absorb`\\ s the result into its memory layer without
re-serialising anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from typing import Dict, Iterator, Optional

from repro.system.config import SystemConfig
from repro.system.metrics import SimulationResult

#: Bump whenever the simulator's observable behaviour or the entry layout
#: changes; old entries are then treated as misses and rewritten.
#: 2: event-horizon engine (PR 4) -- time skips honour tREFI/tRRD/tFAW
#:    deadlines, the FR-FCFS cap resets on row closure, failed dispatches
#:    no longer mutate the LLC, finished cores replay deterministically.
#: 3: PRAC+PRFM counts each PRFM-requested RFM once (in PRAC, which serves
#:    it), not also in PRFM's ``rfm_commands`` / ``preventive_refresh_rows``.
CACHE_SCHEMA_VERSION = 3

#: Environment variable consulted for the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> str:
    """The cache directory used when none is given explicitly."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def config_payload(config: SystemConfig) -> Dict[str, object]:
    """A JSON-serialisable description of *every* field of a system config.

    Using ``dataclasses.asdict`` means a newly added config field
    automatically changes the cache key, so stale results can never be
    served for configs the old key function did not distinguish.
    """
    return dataclasses.asdict(config)


def job_key(payload: Dict[str, object]) -> str:
    """SHA-256 digest of the canonical JSON encoding of a job description."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Serialise a :class:`SimulationResult` to plain JSON types."""
    return dataclasses.asdict(result)


def result_from_dict(data: Dict[str, object]) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_dict` output."""
    fields = {f.name for f in dataclasses.fields(SimulationResult)}
    unknown = set(data) - fields
    if unknown:
        raise ValueError(f"unknown SimulationResult fields: {sorted(unknown)}")
    return SimulationResult(**data)


class ResultCache:
    """Two-layer (memory + optional disk) cache of simulation results."""

    def __init__(self, directory: Optional[str] = None) -> None:
        """Create a cache.

        Args:
            directory: on-disk location.  ``None`` keeps the cache purely in
                memory (the default for throwaway runners in unit tests).
        """
        self.directory = directory
        self._memory: Dict[str, SimulationResult] = {}
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        self.corrupt_entries = 0
        #: Results inserted memory-only via :meth:`absorb` (already written
        #: to disk by a worker process).
        self.absorbed = 0

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[SimulationResult]:
        """Return the cached result for ``key`` or None (counted as a miss)."""
        result = self._memory.get(key)
        if result is None:
            result = self._read_disk(key)
            if result is not None:
                self._memory[key] = result
                self.disk_hits += 1
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        return None

    def put(
        self,
        key: str,
        result: SimulationResult,
        job_payload: Optional[Dict[str, object]] = None,
    ) -> None:
        """Store ``result`` under ``key`` in both layers.

        Args:
            key: content hash from :func:`job_key`.
            result: the simulation result to memoise.
            job_payload: the job description the key was derived from; stored
                alongside the result so cache entries are self-describing
                (useful for debugging and offline invalidation).
        """
        self._memory[key] = result
        if self.directory is None:
            return
        self._write_entry(key, result, job_payload)
        self.stores += 1

    def _write_entry(
        self,
        key: str,
        result: SimulationResult,
        job_payload: Optional[Dict[str, object]],
    ) -> None:
        """Atomically write one per-key entry file (concurrency-safe).

        A failed write leaves no temporary file and any entry already at
        the path unchanged, and raises an :class:`OSError` naming the path.
        """
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "key": key,
            "job": job_payload,
            "result": result_to_dict(result),
        }
        path = self._entry_path(key)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(entry, handle, sort_keys=True)
                os.replace(tmp_path, path)
            except BaseException:
                if os.path.exists(tmp_path):
                    os.unlink(tmp_path)
                raise
        except OSError as error:
            raise OSError(error.errno, error.strerror, path) from error

    def absorb(self, key: str, result: SimulationResult) -> None:
        """Insert a result into the memory layer only.

        Used for results a worker process already streamed to disk: the
        parent keeps the in-process object identity guarantee without
        re-serialising the entry.
        """
        self._memory[key] = result
        self.absorbed += 1

    def contains(self, key: str) -> bool:
        """True if ``key`` is cached; never mutates the hit/miss counters."""
        if key in self._memory:
            return True
        if self.directory is None:
            return False
        return os.path.exists(self._entry_path(key))

    # ------------------------------------------------------------------ #
    # Disk layer
    # ------------------------------------------------------------------ #
    def _entry_path(self, key: str) -> str:
        assert self.directory is not None
        return os.path.join(self.directory, key[:2], f"{key}.json")

    def _read_disk(self, key: str) -> Optional[SimulationResult]:
        if self.directory is None:
            return None
        path = self._entry_path(key)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if not isinstance(entry, dict):
                raise ValueError("entry is not a JSON object")
            if entry.get("schema") != CACHE_SCHEMA_VERSION:
                raise ValueError(f"schema {entry.get('schema')!r} != {CACHE_SCHEMA_VERSION}")
            if entry.get("key") != key:
                raise ValueError("entry key does not match its file name")
            return result_from_dict(entry["result"])
        except (OSError, ValueError, TypeError, KeyError):
            # Corrupted / truncated / non-object / stale-schema entry: drop
            # it and let the caller recompute, which rewrites a valid entry.
            self.corrupt_entries += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None

    def _iter_entry_paths(self) -> Iterator[str]:
        if self.directory is None or not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            shard_dir = os.path.join(self.directory, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield os.path.join(shard_dir, name)

    # ------------------------------------------------------------------ #
    # Maintenance / reporting
    # ------------------------------------------------------------------ #
    def disk_entry_count(self) -> int:
        """Number of valid-looking entry files on disk."""
        return sum(1 for _ in self._iter_entry_paths())

    def clear(self) -> int:
        """Drop both layers; returns the number of disk entries removed."""
        self._memory.clear()
        removed = 0
        for path in list(self._iter_entry_paths()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when idle).

        :meth:`~repro.experiments.sweep.SweepEngine.run_jobs` looks each
        distinct job up once and callers aggregate the map it returns, so a
        cold sweep reads 0% and a fully cached re-run 100%.
        """
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        """One-line, human-readable cache statistics."""
        location = self.directory or "memory-only"
        stored = self.stores + self.absorbed
        detail = f"{stored} stored"
        if self.absorbed:
            detail += f" ({self.absorbed} streamed by workers)"
        return (
            f"cache[{location}]: {self.hits}/{self.lookups} lookups "
            f"served ({self.hit_rate() * 100.0:.1f}% hit rate, {self.disk_hits} from disk, "
            f"{detail}, {self.corrupt_entries} corrupt entries recovered)"
        )
