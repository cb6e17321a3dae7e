"""Rule ``determinism``: simulation code must be reproducible run-to-run.

The content-addressed ResultCache, the byte-identity pin
(``test_event_horizon.py``) and the golden regression all assume that a
``(config, trace seed)`` pair produces the same bytes on every run.
Three constructs silently break that:

* wall-clock reads (``time.time`` / ``perf_counter`` / ``monotonic`` and
  their ``_ns`` variants) leaking into simulated state,
* the process-global ``random`` module (``random.random()``,
  ``random.shuffle()``, ...) whose state any import can perturb, and
  unseeded ``random.Random()`` / any ``random.SystemRandom`` instances,
* iterating a ``set``/``frozenset`` of strings: ``str`` hashing is
  randomized per process (PYTHONHASHSEED), so the iteration order -- and
  everything derived from it -- changes between runs.

Seeded ``random.Random(seed)`` instances are the sanctioned randomness
source and stay quiet.  The set-iteration check is deliberately narrow
(literal string sets and ``set()``/``frozenset()`` over literal string
collections) to avoid guessing types.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.lint.framework import FileContext, Finding, Rule
from repro.lint import manifest

_CLOCK_ATTRS = {
    "time", "perf_counter", "monotonic",
    "time_ns", "perf_counter_ns", "monotonic_ns",
}


def _is_str_literal_collection(node: ast.AST) -> bool:
    """A literal ``{...}`` / ``[...]`` / ``(...)`` whose elements are str."""
    if isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return bool(node.elts) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts
        )
    return False


class DeterminismRule(Rule):
    name = "determinism"
    description = (
        "no wall clocks, global random state, or str-set iteration in "
        "simulation packages (byte-identity depends on it)"
    )
    targets = manifest.DETERMINISM_TARGETS

    def __init__(self, targets=None) -> None:
        if targets is not None:
            self.targets = tuple(targets)

    def begin_file(self, ctx: FileContext) -> None:
        self._time_modules = set()
        self._random_modules = set()
        #: local name -> original name imported from time/random
        self._from_time = {}
        self._from_random = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name == "time":
                        self._time_modules.add(local)
                    elif alias.name == "random":
                        self._random_modules.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        self._from_time[alias.asname or alias.name] = alias.name
                elif node.module == "random":
                    for alias in node.names:
                        self._from_random[alias.asname or alias.name] = alias.name

    # ------------------------------------------------------------------ #
    # clocks and random state
    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call, ctx: FileContext) -> Optional[List[Finding]]:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner in self._time_modules and func.attr in _CLOCK_ATTRS:
                return [
                    self.finding(
                        ctx, node,
                        f"time.{func.attr}() is a wall-clock read; simulated "
                        f"behaviour must depend only on the cycle count",
                    )
                ]
            if owner in self._random_modules:
                return self._check_random(node, func.attr, ctx)
        elif isinstance(func, ast.Name):
            original = self._from_time.get(func.id)
            if original in _CLOCK_ATTRS:
                return [
                    self.finding(
                        ctx, node,
                        f"time.{original}() is a wall-clock read; simulated "
                        f"behaviour must depend only on the cycle count",
                    )
                ]
            original = self._from_random.get(func.id)
            if original is not None:
                return self._check_random(node, original, ctx)
        return None

    def _check_random(
        self, node: ast.Call, attr: str, ctx: FileContext
    ) -> Optional[List[Finding]]:
        if attr == "Random":
            if node.args or node.keywords:
                return None  # seeded: the sanctioned randomness source
            return [
                self.finding(
                    ctx, node,
                    "unseeded random.Random() seeds from the OS; pass the "
                    "run's seed explicitly",
                )
            ]
        if attr == "SystemRandom":
            return [
                self.finding(
                    ctx, node,
                    "random.SystemRandom is OS entropy and can never replay",
                )
            ]
        return [
            self.finding(
                ctx, node,
                f"random.{attr}() uses the process-global generator; use a "
                f"seeded random.Random(seed) instance",
            )
        ]

    # ------------------------------------------------------------------ #
    # str-set iteration order
    # ------------------------------------------------------------------ #
    def _check_iterable(self, node: ast.AST, ctx: FileContext) -> Optional[List[Finding]]:
        suspect = None
        if isinstance(node, ast.Set) and _is_str_literal_collection(node):
            suspect = node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
            and len(node.args) == 1
            and _is_str_literal_collection(node.args[0])
        ):
            suspect = node
        if suspect is None:
            return None
        return [
            self.finding(
                ctx, suspect,
                "iterating a set of strings: the order depends on per-process "
                "hash randomization; iterate a sorted() copy or a tuple",
            )
        ]

    def visit_For(self, node: ast.For, ctx: FileContext):
        return self._check_iterable(node.iter, ctx)

    def _check_comprehension(self, node, ctx: FileContext):
        findings: List[Finding] = []
        for generator in node.generators:
            produced = self._check_iterable(generator.iter, ctx)
            if produced:
                findings.extend(produced)
        return findings or None

    def visit_ListComp(self, node: ast.ListComp, ctx: FileContext):
        return self._check_comprehension(node, ctx)

    def visit_SetComp(self, node: ast.SetComp, ctx: FileContext):
        return self._check_comprehension(node, ctx)

    def visit_DictComp(self, node: ast.DictComp, ctx: FileContext):
        return self._check_comprehension(node, ctx)

    def visit_GeneratorExp(self, node: ast.GeneratorExp, ctx: FileContext):
        return self._check_comprehension(node, ctx)
