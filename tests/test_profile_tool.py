"""Smoke tests for the cProfile entry point (tools/profile_run.py)."""

import json
import os
import re
import shlex
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + REPO_ROOT
    return subprocess.run(
        [sys.executable, "-m", "tools.profile_run", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


def test_cli_prints_top_hotspots():
    """`python -m tools.profile_run` profiles a benchmark job and prints a
    pstats table."""
    result = run_tool("--workload", "benign-4core", "--job", "PRAC-4/ch2", "--top", "5")
    assert result.returncode == 0, result.stderr
    assert "profiling benign-4core job PRAC-4/ch2" in result.stdout
    assert "cumulative" in result.stdout  # the pstats sort header
    assert "simulated" in result.stdout and "0 back-offs" in result.stdout


def test_cli_json_summary_of_the_default_job():
    """`--json` emits a machine-readable top-N summary and nothing else, and
    the default job (perf-attack's PRAC-4) runs the back-off protocol."""
    result = run_tool("--json", "--sort", "tottime", "--top", "7")
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout)  # pure JSON: no banner, no table
    assert (summary["workload"], summary["job"]) == ("perf-attack", "PRAC-4")
    assert summary["mechanism"] == "PRAC-4" and summary["nrh"] == 20
    assert summary["sort"] == "tottime"
    assert summary["cycles"] > 0 and summary["commands"] > 0
    assert summary["backoffs"] > 0 and summary["rfms"] > 0
    top = summary["top"]
    assert 0 < len(top) <= 7
    for row in top:
        assert set(row) == {
            "function", "ncalls", "primitive_calls", "tottime", "cumtime"
        }
    # Honours the sort key: rows arrive in descending self-time order.
    tottimes = [row["tottime"] for row in top]
    assert tottimes == sorted(tottimes, reverse=True)


def test_cli_rejects_unknown_workload():
    result = run_tool("--workload", "bogus")
    assert result.returncode == 2
    assert "unknown workload 'bogus'" in result.stderr
    for name in ("benign-4core", "perf-attack", "wave", "fig-sweep"):
        assert name in result.stderr


def test_cli_rejects_unknown_job():
    result = run_tool("--workload", "wave", "--job", "bogus")
    assert result.returncode == 2
    assert "unknown job 'bogus' of wave" in result.stderr
    for job in ("PRAC-1", "Chronus-PB", "PRFM", "Graphene"):
        assert job in result.stderr


def test_documented_commands_run():
    """Every profile command shown in docs/EXPERIMENTS.md runs."""
    with open(os.path.join(REPO_ROOT, "docs", "EXPERIMENTS.md"), encoding="utf-8") as handle:
        doc = handle.read()
    commands = re.findall(r"^\$ PYTHONPATH=src python -m tools\.profile_run (.*)$", doc, re.M)
    assert commands
    for arguments in commands:
        result = run_tool(*shlex.split(arguments))
        assert result.returncode == 0, result.stderr
