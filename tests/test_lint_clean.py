"""The committed tree is lint-clean: reprolint (and ruff, when present)
report nothing.

This is the test-suite mirror of the CI lint gate: a change that
introduces a finding fails here *locally*, before CI, with the same
exit-code contract.  The one way to accept a finding is an inline
``# reprolint: disable=RULE -- reason`` directive, so every directive
under ``src/`` must carry a written reason.  Ruff is a CI-installed extra
(the hermetic test container does not ship it), so the ruff check skips
when the binary is absent rather than failing.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import main as repro_main  # noqa: E402
from repro.lint import manifest  # noqa: E402
from repro.lint.framework import parse_project, run_rules  # noqa: E402
from repro.lint.rules import default_rules  # noqa: E402


def full_reason(ctx, directive):
    """A directive's reason plus the comment lines continuing it.

    A comment-only directive covers the next statement, so its reason may
    run on over the comment lines in between.
    """
    lines = ctx.source.splitlines()
    parts = [directive.reason]
    for lineno in range(directive.line + 1, directive.applies_to):
        parts.append(lines[lineno - 1].strip().lstrip("#"))
    return " ".join(parts)


class TestRepoIsLintClean:
    def test_committed_tree_has_no_findings(self):
        project, parse_errors = parse_project(
            REPO_ROOT, manifest.DEFAULT_SCAN_PATHS
        )
        assert project.files, "default scan paths found no files"
        result = run_rules(project, default_rules(), parse_errors)
        assert result.findings == [], "\n".join(
            f.render() for f in result.findings
        )

    def test_cli_exit_code_is_zero(self, capsys):
        assert repro_main(["lint", "--root", str(REPO_ROOT)]) == 0
        capsys.readouterr()

    def test_json_report_is_well_formed(self, capsys):
        assert repro_main(
            ["lint", "--root", str(REPO_ROOT), "--format", "json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 2
        assert report["findings"] == []
        assert sorted(report["rules"]) == sorted(
            rule.name for rule in default_rules()
        )

    def test_every_inline_suppression_has_a_real_reason(self):
        # A reasonless directive is already a bad-suppression finding; pin
        # the stronger property that reasons are substantive, not stubs.
        project, _ = parse_project(REPO_ROOT, manifest.DEFAULT_SCAN_PATHS)
        directives = [
            (ctx, directive)
            for ctx in project.files.values()
            for directive in ctx.suppressions
        ]
        assert directives, "expected the committed inline suppressions"
        for ctx, directive in directives:
            reason = full_reason(ctx, directive)
            assert len(reason.split()) >= 5, (
                f"{ctx.rel_path}:{directive.line}: suppression of "
                f"{', '.join(directive.rules)} needs a written "
                f"justification, not a stub: {reason!r}"
            )


class TestRuff:
    """Ruff is pinned in pyproject and runs in CI; skip when not installed."""

    def test_ruff_check_is_clean(self):
        ruff = shutil.which("ruff")
        if ruff is None:
            pytest.skip("ruff is not installed (CI installs the lint extra)")
        completed = subprocess.run(
            [ruff, "check", "."],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 0, completed.stdout + completed.stderr
