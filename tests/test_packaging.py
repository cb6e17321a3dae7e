"""Packaging metadata sanity checks.

``setup.py`` has always claimed "the pyproject.toml metadata is
authoritative" -- these tests make that claim true and keep it true: the
file must exist, parse, agree with the package's ``__version__``, declare
the NumPy dependency the bank timing plane imports, and expose a console
entry point that actually resolves.
"""

import sys
import tomllib
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = REPO_ROOT / "pyproject.toml"


def load_pyproject():
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

    def test_numpy_dependency_declared(self):
        project = load_pyproject()["project"]
        dependencies = project["dependencies"]
        assert any(
            dep.partition(">")[0].partition("=")[0].strip() == "numpy"
            for dep in dependencies
        ), f"numpy missing from dependencies: {dependencies}"

    def test_requires_python_matches_running_interpreter(self):
        # The suite runs on the interpreter CI provisions; the floor must
        # not exclude it.
        project = load_pyproject()["project"]
        floor = project["requires-python"].removeprefix(">=")
        major, minor = (int(part) for part in floor.split("."))
        assert sys.version_info[:2] >= (major, minor)

    def test_console_script_resolves(self):
        project = load_pyproject()["project"]
        target = project["scripts"]["repro"]
        module_name, _, attribute = target.partition(":")
        module = __import__(module_name, fromlist=[attribute])
        assert callable(getattr(module, attribute))

    def test_src_layout_discovery(self):
        tool = load_pyproject()["tool"]["setuptools"]
        assert tool["packages"]["find"]["where"] == ["src"]
