"""Packaging metadata sanity checks.

``setup.py`` has always claimed "the pyproject.toml metadata is
authoritative" -- these tests make that claim true and keep it true: the
file must exist, parse, agree with the package's ``__version__`` and
expose a console entry point that actually resolves.  The package is pure
Python: a simulation runs with NumPy unimportable.  ``tomllib`` is new in
Python 3.11, so on the 3.10 leg of the CI matrix only the tests that read
``pyproject.toml`` skip.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"


def load_pyproject():
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)


class TestPyprojectMetadata:
    def test_pyproject_exists_as_setup_py_claims(self):
        setup_py = (REPO_ROOT / "setup.py").read_text()
        assert "pyproject.toml" in setup_py, (
            "setup.py no longer documents its relationship to pyproject.toml"
        )
        assert PYPROJECT.is_file(), (
            "setup.py declares pyproject.toml authoritative, but the file "
            "does not exist"
        )

    def test_version_matches_package(self):
        project = load_pyproject()["project"]
        assert project["version"] == repro.__version__

    def test_simulates_without_numpy(self):
        # A fresh interpreter in which ``import numpy`` fails: a wave attack
        # on PRAC-1 at N_RH=20 must still simulate its REFs and its
        # back-off RFMs.
        script = textwrap.dedent(
            """\
            import sys
            sys.modules["numpy"] = None
            from repro.attacks.patterns import AttackSpec
            from repro.experiments.sweep import attack_search_job, execute_job
            from repro.system.config import paper_system_config
            spec = AttackSpec.create(
                "wave", {"num_rows": 16, "rounds": 20, "row_stride": 4}
            )
            job = attack_search_job(paper_system_config(), "PRAC-1", 20, spec)
            counts = execute_job(job).command_counts
            print(counts["REF"], counts["RFM"])
            """
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert completed.returncode == 0, completed.stderr
        refreshes, rfms = (int(count) for count in completed.stdout.split())
        assert refreshes > 0 and rfms > 0

    def test_requires_python_matches_running_interpreter(self):
        # The suite runs on the interpreter CI provisions; the floor must
        # not exclude it.
        project = load_pyproject()["project"]
        floor = project["requires-python"].removeprefix(">=")
        major, minor = (int(part) for part in floor.split("."))
        assert sys.version_info[:2] >= (major, minor)

    def test_python_floor_agrees_everywhere(self):
        # The declared floor, the oldest interpreter CI tests and the
        # README's stated requirement must be the same version.
        floor = load_pyproject()["project"]["requires-python"].removeprefix(">=")
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        matrix = re.search(r"matrix:\s*\n\s*python-version:\s*\[([^\]]*)\]", workflow)
        assert matrix, "ci.yml has no python-version test matrix"
        versions = [v.strip().strip("\"'") for v in matrix.group(1).split(",")]
        oldest = min(versions, key=lambda v: tuple(int(p) for p in v.split(".")))
        readme_text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        readme = re.search(r"Python ≥ (\d+\.\d+)", readme_text)
        assert readme, "README.md does not state a Python floor"
        assert floor == oldest == readme.group(1)

    def test_console_script_resolves(self):
        project = load_pyproject()["project"]
        target = project["scripts"]["repro"]
        module_name, _, attribute = target.partition(":")
        module = __import__(module_name, fromlist=[attribute])
        assert callable(getattr(module, attribute))

    def test_src_layout_discovery(self):
        tool = load_pyproject()["tool"]["setuptools"]
        assert tool["packages"]["find"]["where"] == ["src"]
