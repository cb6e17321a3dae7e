"""Engine progress streaming, cooperative cancellation and pool lifecycle.

These are the SweepEngine features the simulation service is built on:
``run_jobs(progress=..., cancel=...)``, structured :class:`RunReport`
serialisation, and the atexit/context-manager pool reaping that keeps
interrupted runs from leaking worker processes.
"""

import dataclasses
import json
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.sweep import (
    CancelToken,
    SweepCancelled,
    SweepEngine,
    SweepSpec,
    SweepWorkerLost,
    shutdown_live_engines,
)

SPEC = SweepSpec(
    mechanisms=("Chronus",),
    nrh_values=(128, 64),
    mixes=(("429.mcf",),),
    accesses_per_core=150,
)


class TestProgressEvents:
    def run_with_progress(self, **engine_kwargs):
        engine = SweepEngine(**engine_kwargs)
        events = []
        results = engine.run(SPEC, progress=events.append)
        return engine, events, results

    @pytest.mark.parametrize("workers, mode", [(0, "serial"), (2, "pool")])
    def test_event_stream_shape(self, workers, mode):
        """Both modes emit one ``job`` event per executed job, and nothing
        between ``plan`` and ``report`` but ``job`` events."""
        with SweepEngine(workers=workers) as engine:
            events = []
            results = engine.run(SPEC, progress=events.append)
        kinds = [event["event"] for event in events]
        assert kinds == ["plan"] + ["job"] * len(results) + ["report"]
        plan = events[0]
        assert plan["total_jobs"] == len(results)
        assert plan["missing_jobs"] == len(results)
        assert plan["mode"] == mode
        # Per-job events count up monotonically to completion.
        jobs = [event for event in events if event["event"] == "job"]
        assert [event["done_jobs"] for event in jobs] == list(
            range(1, len(results) + 1)
        )
        assert {event["key"] for event in jobs} == set(results)
        assert all(event["missing_jobs"] == len(results) for event in jobs)
        # Every event is JSON-serialisable as-is (the service sends them raw).
        json.dumps(events)

    def test_report_event_matches_last_run_report(self):
        engine, events, _ = self.run_with_progress(workers=0)
        assert events[-1]["report"] == engine.last_run_report.as_dict()

    def test_fully_cached_run_emits_cached_plan(self):
        engine = SweepEngine(workers=0)
        engine.run(SPEC)
        events = []
        engine.run(SPEC, progress=events.append)
        assert [event["event"] for event in events] == ["plan", "report"]
        assert events[0]["mode"] == "cached"
        assert events[0]["missing_jobs"] == 0
        assert events[-1]["report"]["engine"] == "cached"

    def test_single_missing_job_on_a_pool_engine_reports_serial(self):
        """One missing job never starts the pool, and the report says so."""
        engine = SweepEngine(workers=2)
        events = []
        engine.run_jobs(SPEC.expand()[:1], progress=events.append)
        assert events[0]["mode"] == "serial"
        assert engine.last_run_report.as_dict()["engine"] == "serial"
        assert engine._pool is None


class TestRunReportAsDict:
    def test_as_dict_is_json_round_trippable(self):
        engine = SweepEngine(workers=0)
        engine.run(SPEC)
        data = engine.last_run_report.as_dict()
        assert json.loads(json.dumps(data)) == data
        assert set(data) == {
            "total_jobs", "cached_jobs", "executed_jobs", "workers", "engine",
            "wall_seconds", "cache_hit_rate",
        }
        assert data["engine"] == "serial"
        assert data["total_jobs"] == data["executed_jobs"] > 0
        assert data["cache_hit_rate"] == 0.0
        assert data["wall_seconds"] >= 0.0

    def test_cached_rerun_reports_full_hit_rate(self):
        engine = SweepEngine(workers=0)
        engine.run(SPEC)
        engine.run(SPEC)
        data = engine.last_run_report.as_dict()
        assert data["engine"] == "cached"
        assert data["cache_hit_rate"] == 1.0
        assert data["executed_jobs"] == 0


class TestCancellation:
    def test_pre_cancelled_token_stops_before_any_work(self):
        engine = SweepEngine(workers=0)
        token = CancelToken()
        token.cancel()
        with pytest.raises(SweepCancelled) as excinfo:
            engine.run(SPEC, cancel=token)
        assert engine.executed_jobs == 0
        assert excinfo.value.report.executed_jobs == 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cancel_after_first_job_keeps_partial_work_cached(self, workers):
        token = CancelToken()

        def cancel_after_first(event):
            if event["event"] == "job":
                token.cancel()

        with SweepEngine(workers=workers) as engine:
            with pytest.raises(SweepCancelled) as excinfo:
                engine.run(SPEC, progress=cancel_after_first, cancel=token)
            executed = excinfo.value.report.executed_jobs
            if workers:
                # Jobs that finish together are booked together.
                assert 1 <= executed <= 2
            else:
                assert executed == 1
            assert engine.executed_jobs == executed
            assert f"after {executed} executed job(s)" in str(excinfo.value)
            assert excinfo.value.report.wall_seconds > 0.0
            # The finished jobs survive in the cache: resubmission resumes.
            events = []
            results = engine.run(SPEC, progress=events.append)
        assert len(results) == len(SPEC.expand())
        assert events[0]["missing_jobs"] == len(results) - executed

    def test_cancelled_run_does_not_touch_last_run_report(self):
        engine = SweepEngine(workers=0)
        engine.run(SPEC)
        before = engine.last_run_report
        token = CancelToken()
        token.cancel()
        with pytest.raises(SweepCancelled):
            engine.run(
                dataclasses.replace(SPEC, accesses_per_core=151), cancel=token
            )
        # The partial report travels on the exception, not the engine.
        assert engine.last_run_report is before


class TestPoolLifecycle:
    def test_context_manager_shuts_pool_down(self):
        with SweepEngine(workers=2) as engine:
            engine._ensure_pool()
            assert engine._pool is not None
        assert engine._pool is None

    def test_close_is_idempotent(self):
        engine = SweepEngine(workers=2)
        engine._ensure_pool()
        engine.close()
        engine.close()
        assert engine._pool is None

    def test_shutdown_live_engines_reaps_open_pools(self):
        engine = SweepEngine(workers=2)
        engine._ensure_pool()
        assert engine._pool is not None
        reaped = shutdown_live_engines()
        assert reaped >= 1
        assert engine._pool is None
        # Nothing left to reap on the second sweep.
        engine.close()
        assert shutdown_live_engines() == 0

    def test_pool_recreated_after_reap(self):
        engine = SweepEngine(workers=2)
        engine._ensure_pool()
        shutdown_live_engines()
        pool = engine._ensure_pool()
        assert pool is engine._pool is not None
        engine.close()


def kill_a_worker(engine):
    """SIGKILL one live worker of the engine's pool; returns the pool."""
    pool = engine._pool
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    return pool


def wait_until_broken(pool, timeout=10.0):
    """Block until ``pool`` has noticed its dead worker."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pool.submit(int).result(timeout=timeout)
        except BrokenProcessPool:
            return
        time.sleep(0.01)
    raise AssertionError("the pool never noticed its dead worker")


class TestWorkerLoss:
    #: Seven jobs, so that most are still pending after the first finishes.
    LONG_SPEC = SweepSpec(
        mechanisms=("Chronus", "PRAC-4"),
        nrh_values=(128, 64, 32),
        mixes=(("429.mcf",),),
        accesses_per_core=400,
    )

    def test_worker_killed_between_runs_leaves_the_next_run_pooled(self):
        with SweepEngine(workers=2) as engine:
            engine.run(SPEC)
            wait_until_broken(kill_a_worker(engine))
            spec = dataclasses.replace(SPEC, accesses_per_core=151)
            results = engine.run(spec)
            assert engine.last_run_report.mode == "pool"
            assert engine.last_run_report.executed_jobs == len(spec.expand())
        assert set(results) == {job.key for job in spec.expand()}

    def test_worker_killed_mid_run_raises_worker_lost(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        total = len(self.LONG_SPEC.expand())
        with SweepEngine(cache=ResultCache(cache_dir), workers=2) as engine:
            def kill_on_first_job(event):
                if event["event"] == "job" and event["done_jobs"] == 1:
                    kill_a_worker(engine)

            with pytest.raises(SweepWorkerLost) as excinfo:
                engine.run(self.LONG_SPEC, progress=kill_on_first_job)
            executed = excinfo.value.report.executed_jobs
            assert 1 <= executed < total
            assert f"after {executed} executed job(s)" in str(excinfo.value)
            assert isinstance(excinfo.value.__cause__, BrokenProcessPool)
            assert engine._pool is None
            # Every entry the workers left on disk is whole.
            left = ResultCache(cache_dir)
            loaded = [
                job for job in self.LONG_SPEC.expand() if left.get(job.key) is not None
            ]
            assert len(loaded) == left.disk_entry_count() >= executed
            assert left.corrupt_entries == 0
            # The next run starts a fresh pool and resumes from the cache.
            events = []
            results = engine.run(self.LONG_SPEC, progress=events.append)
        assert len(results) == total
        assert events[0]["missing_jobs"] == total - len(loaded)
