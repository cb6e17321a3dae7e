"""reprolint: the project-aware static contract checker.

The repo's correctness invariants -- the no-reflection posture of the
artifact parsers, the allocation-free hot path, run-to-run determinism,
canonical-JSON-only payloads, cache-key completeness and the
event-horizon hint registry -- are enforced at review time by AST rules
instead of (only) probabilistically by runtime tests.

Run it as ``python -m repro lint``.  See docs/LINTING.md for the rule
catalogue and the suppression policy: the one way to accept a finding is
an inline ``# reprolint: disable=RULE -- reason`` directive.
"""

from repro.lint.framework import (
    FileContext,
    Finding,
    LintResult,
    Project,
    ProjectRule,
    Rule,
    parse_project,
    run_rules,
)
from repro.lint.rules import default_rules

__all__ = [
    "FileContext",
    "Finding",
    "LintResult",
    "Project",
    "ProjectRule",
    "Rule",
    "default_rules",
    "parse_project",
    "run_rules",
]
