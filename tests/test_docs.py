"""Documentation health checks.

Mirrors the CI docs step locally: every relative Markdown link must resolve,
and the user-facing entry documents must exist and mention the subsystems
they promise to cover.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_links.py"


class TestMarkdownLinks:
    def run_checker(self, root):
        return subprocess.run(
            [sys.executable, str(CHECKER), str(root)],
            capture_output=True, text=True,
        )

    def test_all_relative_links_resolve(self):
        completed = self.run_checker(REPO_ROOT)
        assert completed.returncode == 0, completed.stdout + completed.stderr

    def test_checker_detects_broken_links(self, tmp_path):
        (tmp_path / "doc.md").write_text("see [missing](nowhere.md)")
        completed = self.run_checker(tmp_path)
        assert completed.returncode == 1
        assert "nowhere.md" in completed.stdout

    def test_checker_detects_broken_anchors(self, tmp_path):
        (tmp_path / "target.md").write_text("# Bank timing registers\n")
        (tmp_path / "doc.md").write_text(
            "# Intro\n"
            "see [gone](target.md#structure-of-arrays-bank-timing)\n"
            "and [here](#intro), [nowhere](#outro)\n"
        )
        completed = self.run_checker(tmp_path)
        assert completed.returncode == 1
        assert "target.md#structure-of-arrays-bank-timing" in completed.stdout
        assert "#outro" in completed.stdout
        assert "#intro" not in completed.stdout
        assert "2 broken link(s)" in completed.stdout

    def test_checker_accepts_github_slugs(self, tmp_path):
        (tmp_path / "target.md").write_text(
            "# Bank timing registers\n"
            "## The `_demand_ready_cycle` scan (v2.0)!\n"
            "## Notes\n"
            "```\n"
            "# Notes\n"
            "```\n"
            "## Notes\n"
            "### See [the oracle](doc.md)\n"
        )
        (tmp_path / "doc.md").write_text(
            "[a](target.md#bank-timing-registers) "
            "[b](target.md#the-_demand_ready_cycle-scan-v20) "
            "[c](target.md#notes) [d](target.md#notes-1) "
            "[e](target.md#see-the-oracle)\n"
        )
        completed = self.run_checker(tmp_path)
        assert completed.returncode == 0, completed.stdout
        # The heading inside the fence is not a heading: no third "Notes".
        (tmp_path / "doc.md").write_text("[f](target.md#notes-2)\n")
        assert self.run_checker(tmp_path).returncode == 1


class TestEntryDocuments:
    def test_readme_exists_and_covers_the_basics(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for needle in ("python -m repro", "pytest", "docs/ARCHITECTURE.md", "channels"):
            assert needle in readme, f"README.md is missing {needle!r}"

    def test_architecture_doc_covers_the_layers(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "ChannelRouter", "MemoryController", "DramDevice", "channel",
            "EXPERIMENTS.md", "ATTACKS.md", "SERVICE.md", "SweepEngine",
        ):
            assert needle in architecture, f"ARCHITECTURE.md is missing {needle!r}"

    def test_service_doc_covers_the_contracts(self):
        service = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        for needle in (
            "python -m repro serve", "python -m repro client",
            "POST /jobs", "/ws/jobs/", "Retry-After", "429",
            "CancelToken", "round-robin", "cached_jobs",
            "bench_service_load.py",
        ):
            assert needle in service, f"SERVICE.md is missing {needle!r}"

    def test_readme_mentions_the_service(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/SERVICE.md" in readme
        assert "python -m repro serve" in readme

    def test_artifacts_doc_covers_the_contract(self):
        artifacts = (REPO_ROOT / "docs" / "ARTIFACTS.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "#!REPRO-ARTIFACT", "HMAC", "constant time",
            "python -m repro artifact verify", "canonical JSON",
            "ArtifactIndexError", "ArtifactHeaderError", "--auth-key",
            "tests/test_artifacts_security.py", "X-Auth-Token",
        ):
            assert needle in artifacts, f"ARTIFACTS.md is missing {needle!r}"

    def test_readme_mentions_artifacts(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/ARTIFACTS.md" in readme
        assert "artifact verify" in readme

    def test_linting_doc_covers_the_contracts(self):
        linting = (REPO_ROOT / "docs" / "LINTING.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "python -m repro lint", "tools/reprolint.py",
            "no-reflection", "hot-path-alloc", "determinism",
            "canonical-json", "cache-key-completeness",
            "event-source-registry", "bad-suppression",
            "reprolint: disable=", "--write-baseline",
            "tools/reprolint_baseline.json", "ruff",
        ):
            assert needle in linting, f"LINTING.md is missing {needle!r}"

    def test_readme_and_architecture_mention_linting(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/LINTING.md" in readme
        assert "python -m repro lint" in readme
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        assert "LINTING.md" in architecture
        assert "event-source-registry" in architecture

    def test_service_doc_covers_authentication(self):
        service = (REPO_ROOT / "docs" / "SERVICE.md").read_text(encoding="utf-8")
        for needle in (
            "--auth-key", "X-Auth-Token", "401", "/jobs/{id}/artifact",
            "ARTIFACTS.md",
        ):
            assert needle in service, f"SERVICE.md is missing {needle!r}"

    def test_experiments_doc_mentions_artifact_emission(self):
        experiments = (REPO_ROOT / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8"
        )
        assert "--artifact" in experiments
        assert "ARTIFACTS.md" in experiments

    def test_architecture_doc_covers_bank_timing_plane(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "### Bank timing registers", "`open_rows`", "`-1` (`NO_ROW`)",
            "never rebinds them", "Why no NumPy", "The VRR rule",
            "tests/bank_reference.py", "TimingViolation",
            "tests/test_bank_backends.py",
            "_demand_ready_cycle", "Wake-hint caches",
        ):
            assert needle in architecture, f"ARCHITECTURE.md is missing {needle!r}"
        for removed in (
            "REPRO_BANK_BACKEND", "fast_kernels", "BankArrayTiming",
            "dram/bank.py", "timing_plane",
        ):
            assert removed not in architecture, f"ARCHITECTURE.md names {removed!r}"

    def test_architecture_doc_covers_counter_stores(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "### Counter stores", "PerRowCounters", "AggressorTrackingTable",
            "MisraGriesTable", "peak_rss_mib", "tests/test_counters.py",
        ):
            assert needle in architecture, f"ARCHITECTURE.md is missing {needle!r}"

    def test_architecture_doc_covers_parked_cores(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "### Parked cores", "Cache.never_evicts", "Core.replay_hits",
            "second implementation", "TestParkedReplay", "simulation deadlock",
            "access_if_hit", "benchmarks/e2e/",
        ):
            assert needle in architecture, f"ARCHITECTURE.md is missing {needle!r}"
        # Invariant 3 names the fused probe; the old two-step probe is gone.
        assert "probed with `contains` before" not in architecture

    def test_architecture_doc_covers_the_hint_after_an_issue(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "### The hint after an issue", "_demand_ready_now", "_write_drain",
            "_preserve_open_row", "not yet observed", "TestWakeContract",
            "89,163",
        ):
            assert needle in architecture, f"ARCHITECTURE.md is missing {needle!r}"
        # The old rule stepped one cycle after every issued command.
        assert "issued a command this cycle (or `strict_tick=True`)" not in architecture

    def test_architecture_doc_covers_lazy_sets_and_the_encode_plan(self):
        architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "allocated on first fill", "1.7 ms and about 1 MiB",
            "`0 <= value < limit`", "coordinate -1 is negative",
            "encodes 128 addresses, not 2,560",
        ):
            assert needle in architecture, f"ARCHITECTURE.md is missing {needle!r}"

    def test_docs_name_no_deleted_counter_or_sweep_mode(self):
        for name in ("ARCHITECTURE.md", "EXPERIMENTS.md"):
            doc = (REPO_ROOT / "docs" / name).read_text(encoding="utf-8")
            for removed in (
                "REPRO_COUNTER_BACKEND", "--batch", "adopt_count_buffers",
            ):
                assert removed not in doc, f"{name} names {removed!r}"

    def test_experiments_doc_covers_bank_timing_and_readiness_scan(self):
        experiments = (REPO_ROOT / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8"
        )
        for needle in (
            "_demand_ready_cycle", "readiness_scan",
            "ARCHITECTURE.md#bank-timing-registers",
        ):
            assert needle in experiments, f"EXPERIMENTS.md is missing {needle!r}"
        for removed in ("REPRO_BANK_BACKEND", "structure-of-arrays-bank-timing"):
            assert removed not in experiments, f"EXPERIMENTS.md names {removed!r}"

    def test_experiment_and_attack_docs_mention_channels_knob(self):
        experiments = (REPO_ROOT / "docs" / "EXPERIMENTS.md").read_text(
            encoding="utf-8"
        )
        attacks = (REPO_ROOT / "docs" / "ATTACKS.md").read_text(encoding="utf-8")
        assert "--channels" in experiments
        assert "--channel" in attacks
        assert "repro.workloads.attacker" in attacks  # deprecation shim note
