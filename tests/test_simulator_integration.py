"""End-to-end system simulation tests.

These tests run small but complete simulations (cores + LLC + controller +
DRAM + mitigation) and assert the qualitative behaviours the paper's
evaluation rests on.
"""

import pytest

from repro.attacks import AttackSpec
from repro.attacks.redteam import RedTeamEngine
from repro.core.factory import MECHANISM_NAMES
from repro.experiments import sweep
from repro.experiments.cache import ResultCache
from repro.experiments.sweep import (
    SweepEngine,
    attack_search_job,
    execute_job,
    mechanism_job,
)
from repro.system import SimulationTruncated, simulator
from repro.system.config import appendix_e_system_config, paper_system_config
from repro.attacks.patterns import performance_attack_trace
from repro.system.simulator import SystemSimulator, simulate
from repro.workloads.mixes import build_mix_traces


ACCESSES = 300


@pytest.fixture(scope="module")
def mix_traces():
    return build_mix_traces(
        ["549.fotonik3d", "429.mcf"], accesses_per_core=ACCESSES, seed=1
    )


@pytest.fixture(scope="module")
def baseline_result(mix_traces):
    config = paper_system_config(mechanism="None", nrh=1024).with_overrides(num_cores=2)
    return simulate(config, mix_traces)


def run(mechanism, nrh, traces, **overrides):
    config = paper_system_config(mechanism=mechanism, nrh=nrh).with_overrides(
        num_cores=len(traces), **overrides
    )
    return simulate(config, traces)


class TestBasicSimulation:
    def test_baseline_completes_and_reports(self, baseline_result):
        result = baseline_result
        assert result.cycles > 0
        assert len(result.core_ipcs) == 2
        assert all(ipc > 0 for ipc in result.core_ipcs)
        assert result.command_counts["ACT"] > 0
        assert result.command_counts["RD"] > 0
        assert result.energy_nj > 0
        assert result.is_secure

    def test_trace_count_must_match_cores(self, mix_traces):
        config = paper_system_config()
        with pytest.raises(ValueError):
            SystemSimulator(config, mix_traces)  # 2 traces for a 4-core config

    def test_simulation_is_deterministic(self, mix_traces, baseline_result):
        config = paper_system_config(mechanism="None", nrh=1024).with_overrides(num_cores=2)
        repeat = simulate(config, mix_traces)
        assert repeat.cycles == baseline_result.cycles
        assert repeat.core_ipcs == baseline_result.core_ipcs
        assert repeat.command_counts == baseline_result.command_counts

    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_every_mechanism_runs_to_completion(self, mechanism, mix_traces):
        result = run(mechanism, 128, mix_traces)
        assert result.cycles > 0
        assert all(ipc > 0 for ipc in result.core_ipcs)


class TestPaperOrderings:
    def test_chronus_matches_baseline_at_modern_threshold(self, mix_traces, baseline_result):
        """Chronus keeps the baseline timings, so at N_RH = 1K it is near zero
        overhead (paper: <0.1%)."""
        chronus = run("Chronus", 1024, mix_traces)
        assert chronus.cycles <= baseline_result.cycles * 1.02

    def test_prac_slower_than_baseline_even_without_backoffs(self, mix_traces, baseline_result):
        """PRAC's inflated tRP/tRC cost performance even at N_RH = 1K."""
        prac = run("PRAC-4", 1024, mix_traces)
        assert prac.cycles > baseline_result.cycles

    def test_chronus_outperforms_prac_at_low_threshold(self, mix_traces):
        chronus = run("Chronus", 20, mix_traces)
        prac = run("PRAC-4", 20, mix_traces)
        assert chronus.cycles < prac.cycles

    def test_prac_overhead_grows_as_nrh_drops(self, mix_traces):
        at_1k = run("PRAC-4", 1024, mix_traces)
        at_20 = run("PRAC-4", 20, mix_traces)
        assert at_20.cycles >= at_1k.cycles

    def test_prfm_expensive_at_low_threshold(self, mix_traces, baseline_result):
        prfm = run("PRFM", 20, mix_traces)
        assert prfm.cycles > baseline_result.cycles * 1.2
        assert prfm.controller_stats["rfms"] > 0

    def test_chronus_energy_above_baseline_but_below_prac(self, mix_traces, baseline_result):
        chronus = run("Chronus", 1024, mix_traces)
        prac = run("PRAC-4", 1024, mix_traces)
        assert chronus.energy_nj > baseline_result.energy_nj
        assert chronus.energy_nj < prac.energy_nj

    def test_para_issues_preventive_refreshes(self, mix_traces):
        para = run("PARA", 32, mix_traces)
        assert para.command_counts.get("VRR", 0) > 0

    def test_insecure_flag_propagates(self, mix_traces):
        result = run("PRAC-1", 8, mix_traces)
        assert not result.is_secure


class TestPerformanceAttack:
    def test_attacker_degrades_prac_more_than_chronus(self):
        benign = build_mix_traces(["437.leslie3d"], accesses_per_core=ACCESSES, seed=2)
        attack = performance_attack_trace(num_accesses=4 * ACCESSES, seed=0)
        results = {}
        for mechanism in ("Chronus", "PRAC-4"):
            config = paper_system_config(mechanism=mechanism, nrh=20).with_overrides(
                num_cores=2, attacker_cores=(0,)
            )
            attacked = simulate(config, [attack] + benign)
            solo_config = paper_system_config(mechanism=mechanism, nrh=20).with_overrides(
                num_cores=1
            )
            solo = simulate(solo_config, benign)
            results[mechanism] = attacked.core_ipcs[1] / solo.core_ipcs[0]
        assert results["Chronus"] > results["PRAC-4"]

    def test_attack_triggers_backoffs_under_prac(self):
        attack = performance_attack_trace(num_accesses=2000, seed=0)
        config = paper_system_config(mechanism="PRAC-4", nrh=20).with_overrides(
            num_cores=1, attacker_cores=(0,)
        )
        result = simulate(config, [attack])
        assert result.mitigation_stats.get("backoffs", 0) > 0
        assert result.controller_stats["rfms"] > 0


class TestAppendixEConfiguration:
    def test_large_llc_reduces_prac_overhead(self):
        """Appendix E: with a much larger LLC the workloads become cache
        resident and PRAC's overhead shrinks."""
        traces = build_mix_traces(["523.xalancbmk", "531.deepsjeng"],
                                  accesses_per_core=ACCESSES, seed=3)
        small_base = run("None", 1024, traces)
        small_prac = run("PRAC-4", 1024, traces)
        big_base = run("None", 1024, traces, llc_size_bytes=36 * 1024 * 1024)
        big_prac = run("PRAC-4", 1024, traces, llc_size_bytes=36 * 1024 * 1024)
        small_overhead = small_prac.cycles / small_base.cycles
        big_overhead = big_prac.cycles / big_base.cycles
        assert big_overhead <= small_overhead + 0.02

    def test_appendix_config_has_eight_cores(self):
        config = appendix_e_system_config(mechanism="PRAC-4", nrh=1024)
        assert config.num_cores == 8


class TestTruncatedRun:
    """A run stopped by ``max_cycles`` is an error, never a finished result."""

    @pytest.fixture()
    def truncated_job(self):
        return mechanism_job(
            paper_system_config(max_cycles=2_000),
            ("429.mcf", "401.bzip2"),
            "PRAC-4",
            64,
            300,
        )

    def test_run_raises(self, truncated_job):
        with pytest.raises(SimulationTruncated, match="max_cycles=2000"):
            execute_job(truncated_job)

    def test_truncated_job_is_not_cached(self, truncated_job, tmp_path):
        engine = SweepEngine(cache=ResultCache(str(tmp_path)), workers=0)
        with pytest.raises(SimulationTruncated):
            engine.run_jobs([truncated_job])
        assert not ResultCache(str(tmp_path)).contains(truncated_job.key)


class TestVictimsPerAggressor:
    """An attack-search job's oracle counts as many victims per aggressor as
    every mechanism part refreshes: both take ``DEFAULT_BLAST_RADIUS``."""

    @pytest.mark.parametrize(
        "mechanism", [name for name in MECHANISM_NAMES if name != "None"]
    )
    def test_attack_job_oracle_and_mechanism_agree(self, mechanism, monkeypatch):
        built = []

        def build_only(config, traces, workload_name=None, oracle=None, seed=0):
            built.append(SystemSimulator(
                config, traces, workload_name=workload_name, oracle=oracle,
                seed=seed,
            ))

        monkeypatch.setattr(sweep, "simulate", build_only)
        job = attack_search_job(
            paper_system_config(), mechanism, 64, AttackSpec(pattern="single_sided"),
        )
        execute_job(job)
        (sim,) = built
        parts = list(sim.setup.mechanisms())
        assert parts
        for part in parts:
            assert part.victim_rows_per_aggressor == sim.oracle.victims_per_aggressor


class TestJobSeed:
    """A job's seed is its simulation's only seed: beside the traces it
    seeds each channel's mechanism (PARA's RNG), ``seed + i`` on channel
    ``i``."""

    @pytest.mark.parametrize("channels", [1, 2])
    def test_para_job_seeds_its_mechanism_with_the_job_seed(
        self, channels, monkeypatch
    ):
        seeds = []
        build = simulator.build_mechanism

        def recording_build(name, nrh, num_banks, seed=0):
            seeds.append(seed)
            return build(name, nrh, num_banks, seed=seed)

        monkeypatch.setattr(simulator, "build_mechanism", recording_build)
        red_team = RedTeamEngine(
            base_config=paper_system_config().with_overrides(channels=channels),
            seed=5,
        )
        job = red_team.build_job(
            "PARA", 64,
            AttackSpec.create("single_sided", {"hammer_count": 100}, seed=5),
        )
        assert job.seed == 5
        execute_job(job)
        assert seeds == [5 + channel for channel in range(channels)]
