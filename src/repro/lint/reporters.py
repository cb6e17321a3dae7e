"""Human-readable and JSON reporters for a lint run."""

from __future__ import annotations

from typing import Dict, List

from repro.lint.framework import LintResult


def render_human(result: LintResult) -> List[str]:
    """The terminal report, one line per finding plus a summary."""
    lines = [finding.render() for finding in result.findings]
    lines.append(
        f"reprolint: {result.files_scanned} file(s), "
        f"{len(result.rules)} rule(s), "
        f"{len(result.findings)} finding(s)"
    )
    return lines


def render_json(result: LintResult) -> Dict[str, object]:
    """The machine-readable report CI uploads as an artifact."""
    return {
        "version": 2,
        "files_scanned": result.files_scanned,
        "rules": list(result.rules),
        "findings": [finding.as_dict() for finding in result.findings],
    }
