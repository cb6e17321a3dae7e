"""The ``python -m repro lint`` command.

Exit codes follow the CI contract:

* ``0`` -- no findings,
* ``1`` -- at least one finding (or a parse error),
* ``2`` -- usage error (nothing to lint under the root).

A finding is accepted only by an inline
``# reprolint: disable=RULE -- reason`` directive next to the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lint import manifest
from repro.lint.framework import parse_project, run_rules
from repro.lint.reporters import render_human, render_json
from repro.lint.rules import default_rules


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``lint`` subcommand's options."""
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=(
            f"files or directories to lint, relative to --root "
            f"(default: {' '.join(manifest.DEFAULT_SCAN_PATHS)}); partial "
            f"scans skip cross-file rules whose inputs are out of scope"
        ),
    )
    parser.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository root the scan paths and manifests are relative to "
             "(default: the current directory)",
    )
    parser.add_argument(
        "--format", choices=["human", "json"], default="human",
        help="report format (json is what CI uploads)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0

    root = Path(args.root).resolve()
    paths = list(args.paths) if args.paths else list(manifest.DEFAULT_SCAN_PATHS)
    if not any((root / p).exists() for p in paths):
        print(
            f"error: nothing to lint under {root} "
            f"(paths: {', '.join(paths)})",
            file=sys.stderr,
        )
        return 2

    project, parse_errors = parse_project(root, paths)
    result = run_rules(project, rules, parse_errors)

    if args.format == "json":
        print(json.dumps(render_json(result), indent=2, sort_keys=True))
    else:
        for line in render_human(result):
            print(line)
    return 1 if result.findings else 0
