"""ResultCache concurrency, disk faults and the sweep engine's worker pool.

The concurrent-writer regression is the PR 5 satellite fix: a monolithic
single-JSON store loses entries when two workers read-modify-write it at the
same time.  The sharded per-key layout has no such window -- every entry is
its own file landed by an atomic rename -- and the stress test here drives
real concurrent writer *processes* against one directory to pin that.
"""

import errno
import io
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.cache import (
    ResultCache,
    result_to_dict,
)
from repro.experiments.sweep import SweepEngine, SweepSpec
from repro.system.metrics import SimulationResult


def make_result(tag: int) -> SimulationResult:
    return SimulationResult(
        mechanism="None",
        nrh=64,
        workload=f"w{tag}",
        cycles=100 + tag,
        core_ipcs=[1.0],
        core_names=[f"c{tag}"],
        command_counts={"ACT": tag},
        controller_stats={},
        mitigation_stats={},
        energy_nj=float(tag),
        energy_breakdown={},
        is_secure=True,
    )


def _write_batch(args):
    """Worker entry point: put a batch of (key, tag) entries into one dir."""
    directory, pairs = args
    cache = ResultCache(directory)
    for key, tag in pairs:
        cache.put(key, make_result(tag), {"tag": tag})
    return len(pairs)


class TestConcurrentWriters:
    def test_parallel_writers_lose_no_entries(self, tmp_path):
        """Regression: N processes writing simultaneously keep every entry.

        With a monolithic JSON store two workers finishing at the same time
        race on the read-modify-write and one of them erases the other's
        entry; the sharded per-key layout must never drop one.
        """
        directory = str(tmp_path / "cache")
        writers = 4
        per_writer = 25
        batches = [
            (directory, [(f"key-{w}-{i}", w * per_writer + i)
                         for i in range(per_writer)])
            for w in range(writers)
        ]
        with ProcessPoolExecutor(max_workers=writers) as pool:
            assert sum(pool.map(_write_batch, batches)) == writers * per_writer
        cache = ResultCache(directory)
        assert cache.disk_entry_count() == writers * per_writer
        for w in range(writers):
            for i in range(per_writer):
                result = cache.get(f"key-{w}-{i}")
                assert result is not None
                assert result.cycles == 100 + w * per_writer + i

    def test_same_key_concurrent_writers_leave_valid_entry(self, tmp_path):
        """Two writers racing on one key: either wins, the file stays valid."""
        directory = str(tmp_path / "cache")
        batches = [
            (directory, [("shared-key", 1)]),
            (directory, [("shared-key", 2)]),
        ]
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(_write_batch, batches))
        result = ResultCache(directory).get("shared-key")
        assert result is not None
        assert result.cycles in (101, 102)


class TestDiskFaults:
    """A full or failing disk under ``put``: the error reaches the caller
    naming the entry, the shard keeps no temporary file and its old entry,
    and the next ``put`` after the fault clears lands."""

    @staticmethod
    def _fault(monkeypatch, stage, code):
        def fail(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        class FailingFile(io.FileIO):
            def write(self, data):
                fail()

        def failing_fdopen(descriptor, mode="r", *args, **kwargs):
            return io.TextIOWrapper(
                io.BufferedWriter(FailingFile(descriptor, "wb")), encoding="utf-8"
            )

        if stage == "mkstemp":
            monkeypatch.setattr(tempfile, "mkstemp", fail)
        elif stage == "json-write":
            monkeypatch.setattr(os, "fdopen", failing_fdopen)
        else:
            monkeypatch.setattr(os, "replace", fail)

    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EIO], ids=["ENOSPC", "EIO"])
    @pytest.mark.parametrize("stage", ["mkstemp", "json-write", "replace"])
    def test_failed_put_is_loud_atomic_and_recoverable(
        self, tmp_path, monkeypatch, stage, code
    ):
        directory = str(tmp_path / "cache")
        key = "ab" + "0" * 62
        ResultCache(directory).put(key, make_result(1), {"tag": 1})
        path = os.path.join(directory, key[:2], f"{key}.json")
        with open(path, "rb") as handle:
            before = handle.read()

        with monkeypatch.context() as patch:
            self._fault(patch, stage, code)
            with pytest.raises(OSError) as excinfo:
                ResultCache(directory).put(key, make_result(2), {"tag": 2})
        assert excinfo.value.errno == code
        assert excinfo.value.filename == path
        assert path in str(excinfo.value)
        assert os.listdir(os.path.dirname(path)) == [f"{key}.json"]
        with open(path, "rb") as handle:
            assert handle.read() == before

        ResultCache(directory).put(key, make_result(2), {"tag": 2})
        assert ResultCache(directory).get(key) == make_result(2)
        assert os.listdir(os.path.dirname(path)) == [f"{key}.json"]


class TestAbsorb:
    def test_absorb_populates_memory_only(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = ResultCache(directory)
        cache.absorb("k", make_result(5))
        assert cache.absorbed == 1
        assert cache.stores == 0
        assert cache.disk_entry_count() == 0  # the worker wrote it elsewhere
        assert cache.get("k").cycles == 105
        assert "stored" in cache.summary()


SMALL_SPEC = SweepSpec(
    mechanisms=("Chronus",),
    nrh_values=(1024,),
    mixes=(("429.mcf", "401.bzip2"), ("429.mcf",)),
    accesses_per_core=150,
)


class TestPersistentPoolEngine:
    def test_pool_persists_across_runs(self, tmp_path):
        engine = SweepEngine(
            cache=ResultCache(str(tmp_path / "cache")), workers=2
        )
        try:
            engine.run(SMALL_SPEC)
            pool = engine._pool
            assert pool is not None
            # A second run (new jobs via a different seed) reuses the pool.
            second = SweepSpec(
                mechanisms=("Chronus",),
                nrh_values=(1024,),
                mixes=(("429.mcf",),),
                accesses_per_core=150,
                seed=7,
            )
            engine.run(second)
            assert engine._pool is pool
        finally:
            engine.close()
        assert engine._pool is None

    def test_workers_stream_results_to_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        engine = SweepEngine(cache=cache, workers=2)
        try:
            results = engine.run(SMALL_SPEC)
        finally:
            engine.close()
        assert results
        # Every executed entry was written by a worker and only absorbed by
        # the parent -- no parent-side serialisation.
        assert cache.absorbed == engine.executed_jobs > 0
        assert cache.stores == 0
        assert cache.disk_entry_count() == engine.executed_jobs
        # A fresh engine over the same directory is served from disk.
        cold = SweepEngine(cache=ResultCache(str(tmp_path / "cache")), workers=0)
        cold.run(SMALL_SPEC)
        assert cold.executed_jobs == 0

    def test_run_report_counts_jobs_and_hits(self, tmp_path):
        engine = SweepEngine(
            cache=ResultCache(str(tmp_path / "cache")), workers=2
        )
        try:
            engine.run(SMALL_SPEC)
            report = engine.last_run_report
            assert report.executed_jobs == report.total_jobs > 0
            assert report.cached_jobs == 0
            assert report.mode == "pool"
            assert "engine=pool" in report.summary_line()
            engine.run(SMALL_SPEC)
            warm = engine.last_run_report
            assert warm.executed_jobs == 0
            assert warm.cached_jobs == warm.total_jobs
            assert "engine=cached" in warm.summary_line()
        finally:
            engine.close()

    def test_serial_and_pool_results_identical(self, tmp_path):
        serial = SweepEngine(workers=0).run(SMALL_SPEC)
        engine = SweepEngine(workers=2)
        try:
            pooled = engine.run(SMALL_SPEC)
        finally:
            engine.close()
        assert json.dumps(
            {k: result_to_dict(v) for k, v in sorted(serial.items())},
            sort_keys=True,
        ) == json.dumps(
            {k: result_to_dict(v) for k, v in sorted(pooled.items())},
            sort_keys=True,
        )