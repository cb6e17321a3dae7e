"""Tests for the sweep engine: expansion, determinism, caching, CLI."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.experiments.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    result_from_dict,
    result_to_dict,
)
from repro.experiments.sweep import (
    WORKERS_ENV,
    SimJob,
    SweepEngine,
    SweepSpec,
    alone_job,
    attack_job,
    baseline_job,
    build_job_traces,
    default_workers,
    mechanism_job,
)
from repro.system.config import appendix_e_system_config, paper_system_config

ACCESSES = 200

SPEC = SweepSpec(
    mechanisms=("Chronus", "PRAC-4"),
    nrh_values=(1024, 128),
    mixes=(("429.mcf", "401.bzip2"), ("429.mcf",)),
    accesses_per_core=ACCESSES,
)


def run_one(engine, job):
    """Run (or fetch) one job and return its result."""
    return engine.run_jobs([job])[job.key]


def results_digest(results) -> str:
    """Canonical JSON of a key->result mapping (byte-comparable)."""
    return json.dumps(
        {key: result_to_dict(result) for key, result in sorted(results.items())},
        sort_keys=True,
    )


class TestDefaultWorkers:
    """$REPRO_SWEEP_WORKERS parsing: loud on garbage, clamped on negatives."""

    def test_unset_defaults_to_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == 0
        assert default_workers(auto=True) >= 1

    def test_valid_value_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3
        assert default_workers(auto=True) == 3

    def test_unparsable_value_raises_naming_the_text(self, monkeypatch):
        # Used to silently degrade to serial, hiding the typo entirely.
        monkeypatch.setenv(WORKERS_ENV, "eight")
        with pytest.raises(ValueError, match=r"REPRO_SWEEP_WORKERS.*'eight'"):
            default_workers()
        with pytest.raises(ValueError, match=r"REPRO_SWEEP_WORKERS.*'eight'"):
            default_workers(auto=True)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--dry-run", "--num-mixes", "1", "--nrh", "1024", "--no-cache"],
        ["serve", "--port", "0", "--no-cache"],
        ["attack", "search", "--mechanism", "Chronus", "--dry-run", "--no-cache"],
        ["attack", "compare", "--mechanisms", "Chronus", "--no-cache"],
    ], ids=["sweep", "serve", "attack-search", "attack-compare"])
    def test_every_command_reports_an_unparsable_value(self, monkeypatch, capsys, argv):
        monkeypatch.setenv(WORKERS_ENV, "eight")
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == (
            "error: REPRO_SWEEP_WORKERS must be an integer worker count, "
            "got 'eight'\n"
        )

    def test_negative_value_clamped_to_serial(self, monkeypatch):
        # Negative counts used to flow through to the engine verbatim.
        monkeypatch.setenv(WORKERS_ENV, "-4")
        assert default_workers() == 0
        assert SweepEngine().workers == 0


class TestExpansion:
    def test_expand_counts_jobs(self):
        jobs = SPEC.expand()
        # 2 alone + 2 baselines + 2 mech x 2 nrh x 2 mixes = 12, minus the
        # single-application baseline that is identical to its alone run.
        assert len(jobs) == 11
        assert len({job.key for job in jobs}) == len(jobs)
        assert SPEC.num_points() == 8

    def test_applications_deduplicated_in_order(self):
        assert SPEC.applications == ("429.mcf", "401.bzip2")

    def test_alone_and_single_app_baseline_share_one_job(self):
        base = paper_system_config()
        alone = alone_job(base, "429.mcf", ACCESSES)
        baseline = baseline_job(base, ("429.mcf",), ACCESSES)
        assert alone.key == baseline.key

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            SweepSpec(mechanisms=("Nope",), nrh_values=(64,), mixes=(("429.mcf",),))

    def test_job_core_count_must_match_config(self):
        config = paper_system_config().with_overrides(num_cores=4)
        with pytest.raises(ValueError, match="cores"):
            SimJob(config=config, applications=("429.mcf",), accesses_per_core=ACCESSES)


class TestJobKeys:
    def test_key_ignores_workload_name(self):
        base = paper_system_config()
        a = mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES, workload_name="a")
        b = mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES, workload_name="b")
        assert a.key == b.key

    def test_key_covers_every_ipc_relevant_field(self):
        base = paper_system_config()
        reference = mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES)
        variants = [
            mechanism_job(base, ("429.mcf",), "Chronus", 32, ACCESSES),
            mechanism_job(base, ("429.mcf",), "PRAC-4", 64, ACCESSES),
            mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES + 1),
            mechanism_job(base, ("429.mcf",), "Chronus", 64, ACCESSES, seed=1),
            mechanism_job(base, ("401.bzip2",), "Chronus", 64, ACCESSES),
            mechanism_job(
                appendix_e_system_config().with_overrides(num_cores=1),
                ("429.mcf",), "Chronus", 64, ACCESSES,
            ),
        ]
        keys = {reference.key} | {job.key for job in variants}
        assert len(keys) == len(variants) + 1

    def test_baseline_key_depends_on_access_budget(self):
        """Regression: the old in-memory baseline cache keyed only on the
        application tuple, so changing IPC-relevant fields (e.g. the access
        budget) silently reused stale baselines."""
        base = paper_system_config()
        small = baseline_job(base, ("429.mcf", "401.bzip2"), 100)
        large = baseline_job(base, ("429.mcf", "401.bzip2"), 200)
        assert small.key != large.key

    def test_attack_job_traces_and_key(self):
        base = paper_system_config()
        job = attack_job(base, ("429.mcf", "401.bzip2", "403.gcc"), "PRAC-4", 64,
                         ACCESSES, attack_accesses=500)
        traces = build_job_traces(job)
        assert len(traces) == 4 == job.config.num_cores
        assert traces[0].name == "perf_attack"
        peaceful = mechanism_job(base, ("429.mcf", "401.bzip2", "403.gcc"),
                                 "PRAC-4", 64, ACCESSES)
        assert job.key != peaceful.key


class TestDeterminism:
    def test_same_spec_gives_byte_identical_results(self):
        first = SweepEngine().run(SPEC)
        second = SweepEngine().run(SPEC)
        assert results_digest(first) == results_digest(second)

    def test_two_worker_run_matches_serial(self):
        serial = SweepEngine(workers=0).run(SPEC)
        parallel = SweepEngine(workers=2).run(SPEC)
        assert results_digest(serial) == results_digest(parallel)


class TestCaching:
    def test_memory_cache_returns_identical_object(self):
        engine = SweepEngine()
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        assert run_one(engine, job) is run_one(engine, job)
        assert engine.executed_jobs == 1

    def test_disk_cache_round_trip(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = SweepEngine(cache=ResultCache(cache_dir))
        results = first.run(SPEC)
        assert first.executed_jobs == len(SPEC.expand())

        second = SweepEngine(cache=ResultCache(cache_dir))
        again = second.run(SPEC)
        assert second.executed_jobs == 0
        assert second.cache.hit_rate() == 1.0
        assert second.cache.disk_hits == len(SPEC.expand())
        assert results_digest(results) == results_digest(again)

    def test_result_serialization_round_trip(self):
        engine = SweepEngine()
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        result = run_one(engine, job)
        rebuilt = result_from_dict(json.loads(json.dumps(result_to_dict(result))))
        assert result_to_dict(rebuilt) == result_to_dict(result)

    # Valid JSON that is not an object is as corrupt as a truncated entry.
    @pytest.mark.parametrize("garbage", ["{ truncated garbage", "[]", '"text"', "null"])
    def test_corrupted_entry_recovers(self, tmp_path, garbage):
        cache_dir = str(tmp_path / "cache")
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        engine = SweepEngine(cache=ResultCache(cache_dir))
        expected = result_to_dict(run_one(engine, job))

        entry_path = os.path.join(cache_dir, job.key[:2], f"{job.key}.json")
        with open(entry_path, "w", encoding="utf-8") as handle:
            handle.write(garbage)

        recovered = SweepEngine(cache=ResultCache(cache_dir))
        result = run_one(recovered, job)
        assert recovered.cache.corrupt_entries == 1
        assert recovered.executed_jobs == 1
        assert result_to_dict(result) == expected
        # The entry was rewritten and is valid again.
        fresh = SweepEngine(cache=ResultCache(cache_dir))
        assert result_to_dict(run_one(fresh, job)) == expected
        assert fresh.executed_jobs == 0

    def test_schema_mismatch_treated_as_miss(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        engine = SweepEngine(cache=ResultCache(cache_dir))
        run_one(engine, job)

        entry_path = os.path.join(cache_dir, job.key[:2], f"{job.key}.json")
        with open(entry_path, "r", encoding="utf-8") as handle:
            entry = json.load(handle)
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        with open(entry_path, "w", encoding="utf-8") as handle:
            json.dump(entry, handle)

        stale = SweepEngine(cache=ResultCache(cache_dir))
        run_one(stale, job)
        assert stale.cache.corrupt_entries == 1
        assert stale.executed_jobs == 1

    def test_cache_clear_and_contains(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        engine = SweepEngine(cache=cache)
        job = mechanism_job(paper_system_config(), ("429.mcf",), "Chronus", 64, ACCESSES)
        assert not cache.contains(job.key)
        run_one(engine, job)
        assert cache.contains(job.key)
        assert cache.disk_entry_count() == 1
        assert cache.clear() == 1
        assert not cache.contains(job.key)


class TestSharedEngine:
    def test_sweeps_on_one_engine_share_alone_and_baseline_runs(self):
        engine = SweepEngine()
        mixes = (("429.mcf", "401.bzip2"),)
        first = engine.run(SweepSpec(("Chronus",), (1024,), mixes, ACCESSES))
        second = engine.run(SweepSpec(("PRAC-4",), (1024,), mixes, ACCESSES))
        # 2 alone + 1 baseline + 1 mechanism job, then 1 new mechanism job.
        assert engine.executed_jobs == 5
        shared = set(first) & set(second)
        assert len(shared) == 3
        assert all(first[key] is second[key] for key in shared)

    def test_baseline_distinguished_by_access_budget(self):
        engine = SweepEngine()
        base = paper_system_config()
        small = run_one(engine, baseline_job(base, ("429.mcf",), 100))
        large = run_one(engine, baseline_job(base, ("429.mcf",), 200))
        assert small is not large
        assert engine.executed_jobs == 2


class TestCli:
    def test_sweep_dry_run(self, capsys, tmp_path):
        code = cli_main([
            "sweep", "--dry-run", "--num-mixes", "1", "--nrh", "1024",
            "--accesses", "200", "--cache-dir", str(tmp_path / "cache"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "dry run:" in out
        assert "to simulate" in out

    def test_sweep_executes_and_caches(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "sweep", "--num-mixes", "1", "--nrh", "1024", "--accesses", "200",
            "--mechanisms", "Chronus", "--cache-dir", cache_dir,
        ]
        assert cli_main(args) == 0
        first = capsys.readouterr().out
        assert "normalized_ws" in first

        assert cli_main(args) == 0
        second = capsys.readouterr().out
        assert "0 jobs simulated" in second
        assert "100.0% hit rate" in second

    def test_cache_info_and_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cli_main([
            "sweep", "--num-mixes", "1", "--nrh", "1024", "--accesses", "200",
            "--mechanisms", "Chronus", "--cache-dir", cache_dir,
        ])
        capsys.readouterr()
        assert cli_main(["cache", "info", "--cache-dir", cache_dir]) == 0
        info = capsys.readouterr().out
        # One four-application mix: 4 alone runs + 1 baseline + 1 Chronus run.
        assert "entries: 6" in info
        assert cli_main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed 6 entries" in capsys.readouterr().out

    def test_mechanisms_listing(self, capsys):
        assert cli_main(["mechanisms"]) == 0
        out = capsys.readouterr().out
        assert "Chronus" in out and "PRAC-4" in out
