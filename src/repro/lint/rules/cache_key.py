"""Rule ``cache-key-completeness``: every config knob reaches the cache key.

The exact bug PR 1 fixed: the old baseline cache keyed on a hand-written
subset of the config, so adding an IPC-relevant knob silently served stale
results.  Today ``config_payload`` uses ``dataclasses.asdict`` (complete
by construction), but that can rot: if ``config_payload`` is ever
rewritten as an explicit dict, a missing ``SystemConfig`` field resurrects
the stale-cache bug (and a key that is not a field serves nothing).

This rule parses both modules and cross-checks the names statically.
It is a :class:`ProjectRule`: the invariant spans files, so it runs once
over the parsed project rather than per node.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.framework import FileContext, Finding, Project, ProjectRule
from repro.lint import manifest


def _dataclass_fields(tree: ast.Module, class_name: str) -> Optional[Set[str]]:
    """Field names of a (frozen) dataclass: annotated class-level targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            fields = set()
            for statement in node.body:
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    fields.add(statement.target.id)
            return fields
    return None


def _find_function(tree: ast.Module, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _uses_asdict(func: ast.FunctionDef) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == "asdict":
                return True
            if isinstance(callee, ast.Attribute) and callee.attr == "asdict":
                return True
    return False


def _explicit_payload_keys(func: ast.FunctionDef) -> Set[str]:
    """String keys an explicit payload builder mentions.

    Covers dict displays (``{"nrh": ...}``), ``dict(nrh=...)`` keyword
    calls and ``payload["nrh"] = ...`` subscript stores.
    """
    keys: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == "dict":
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keys.add(keyword.arg)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys


class CacheKeyCompletenessRule(ProjectRule):
    name = "cache-key-completeness"
    description = (
        "SystemConfig fields and the cache config_payload keys must agree"
    )

    def __init__(
        self,
        config_module: str = manifest.CONFIG_MODULE,
        config_class: str = manifest.CONFIG_CLASS,
        payload_module: str = manifest.PAYLOAD_MODULE,
        payload_function: str = manifest.PAYLOAD_FUNCTION,
    ) -> None:
        self.config_module = config_module
        self.config_class = config_class
        self.payload_module = payload_module
        self.payload_function = payload_function

    def check_project(self, project: Project) -> List[Finding]:
        payload_ctx = project.get(self.payload_module)
        if payload_ctx is None:
            return []  # partial scan: nothing to cross-check

        config_ctx = project.get(self.config_module)
        if config_ctx is None:
            # The consumer is in scope but the config module is not: the
            # cross-check cannot run, which is itself worth surfacing.
            return [
                Finding(
                    rule=self.name, path=payload_ctx.rel_path, line=1, col=0,
                    message=(
                        f"cannot cross-check the cache key: "
                        f"{self.config_module} is not in the scanned set"
                    ),
                )
            ]
        fields = _dataclass_fields(config_ctx.tree, self.config_class)
        if fields is None:
            return [
                Finding(
                    rule=self.name, path=config_ctx.rel_path, line=1, col=0,
                    message=(
                        f"class {self.config_class} not found in "
                        f"{self.config_module}"
                    ),
                )
            ]
        return self._check_payload(payload_ctx, fields)

    def _check_payload(self, ctx: FileContext, fields: Set[str]) -> List[Finding]:
        func = _find_function(ctx.tree, self.payload_function)
        if func is None:
            return [
                Finding(
                    rule=self.name, path=ctx.rel_path, line=1, col=0,
                    message=(
                        f"cache key builder {self.payload_function}() not "
                        f"found in {ctx.rel_path}"
                    ),
                )
            ]
        if _uses_asdict(func):
            return []  # asdict covers every field by construction
        keys = _explicit_payload_keys(func)
        findings: List[Finding] = []
        for missing in sorted(fields - keys):
            findings.append(
                Finding(
                    rule=self.name, path=ctx.rel_path,
                    line=func.lineno, col=func.col_offset,
                    message=(
                        f"{self.payload_function}() omits "
                        f"{self.config_class}.{missing}: a run with a "
                        f"different {missing} would be served a stale "
                        f"cached result"
                    ),
                )
            )
        for stale in sorted(keys - fields):
            findings.append(
                Finding(
                    rule=self.name, path=ctx.rel_path,
                    line=func.lineno, col=func.col_offset,
                    message=(
                        f"{self.payload_function}() key {stale!r} is not a "
                        f"{self.config_class} field (renamed or removed?)"
                    ),
                )
            )
        return findings
