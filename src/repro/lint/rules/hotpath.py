"""Rule ``hot-path-alloc``: the registered data plane stays allocation-free.

The per-command / per-access / per-idle-wake path is allocation-free in
steady state (slot recycling, the device's bank register lists indexed in
place, cached hints) and the committed benches gate the wins.  A future edit
that drops a comprehension or an f-string into one of those bodies
compiles fine, behaves identically -- and quietly regresses the measured
throughput.

For every function registered in the hot-path manifest
(:data:`repro.lint.manifest.HOT_PATH_FUNCTIONS`) this rule flags the
Python constructs that allocate per call:

* list / set / dict comprehensions and generator expressions,
* ``lambda`` and nested ``def`` (closure objects per call),
* f-strings and ``.format()`` calls (string building),
* ``*args`` / ``**kwargs`` call expansion (packs a fresh tuple/dict).

Constructs inside a ``raise`` statement are exempt: exception paths run
once and then unwind, so building a precise message there is free.

It is a :class:`ProjectRule` so it can also detect *stale manifest
entries*: a registered qualname that no longer exists (the function was
renamed or moved) would otherwise silently stop being checked.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from repro.lint.framework import FileContext, Finding, Project, ProjectRule
from repro.lint import manifest


class HotPathAllocationRule(ProjectRule):
    name = "hot-path-alloc"
    description = (
        "no per-call allocation constructs (comprehensions, closures, "
        "f-strings, */** expansion) in manifest-registered hot-path functions"
    )

    def __init__(self, functions: Optional[Dict[str, FrozenSet[str]]] = None) -> None:
        self.functions = (
            dict(manifest.HOT_PATH_FUNCTIONS) if functions is None else dict(functions)
        )

    def check_project(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for rel_path in sorted(self.functions):
            registered = self.functions[rel_path]
            ctx = project.get(rel_path)
            if ctx is None:
                continue  # partial scan: the file is out of scope
            defined = self._collect_functions(ctx.tree)
            for qualname in sorted(registered):
                node = defined.get(qualname)
                if node is None:
                    findings.append(
                        Finding(
                            rule=self.name, path=rel_path, line=1, col=0,
                            message=(
                                f"stale hot-path manifest entry: {qualname} "
                                f"not found in {rel_path}; update "
                                f"HOT_PATH_FUNCTIONS in repro/lint/manifest.py"
                            ),
                        )
                    )
                    continue
                for child in ast.iter_child_nodes(node):
                    self._scan(child, ctx, qualname, findings)
        return findings

    def _collect_functions(self, tree: ast.Module) -> Dict[str, ast.AST]:
        """Dotted qualname -> def node, for every (nested) def in the file."""
        defined: Dict[str, ast.AST] = {}

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    qualname = f"{prefix}{child.name}" if prefix else child.name
                    if not isinstance(child, ast.ClassDef):
                        defined[qualname] = child
                    walk(child, qualname + ".")
                else:
                    walk(child, prefix)

        walk(tree, "")
        return defined

    def _scan(self, node, ctx: FileContext, qualname: str, findings: List[Finding]):
        if isinstance(node, ast.Raise):
            return  # cold error path: precise messages are free there
        label = None
        if isinstance(node, ast.ListComp):
            label = "a list comprehension allocates a fresh list"
        elif isinstance(node, ast.SetComp):
            label = "a set comprehension allocates a fresh set"
        elif isinstance(node, ast.DictComp):
            label = "a dict comprehension allocates a fresh dict"
        elif isinstance(node, ast.GeneratorExp):
            label = "a generator expression allocates a generator object"
        elif isinstance(node, ast.Lambda):
            label = "a lambda builds a closure object"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            label = "a nested def builds a closure object"
        elif isinstance(node, ast.JoinedStr):
            label = "an f-string builds a fresh string"
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "format":
                label = ".format() builds a fresh string"
            elif any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords
            ):
                label = "*/** call expansion packs a fresh tuple/dict"
        if label is not None:
            findings.append(
                Finding(
                    rule=self.name,
                    path=ctx.rel_path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0),
                    message=(
                        f"{label} on every call of hot-path function {qualname}"
                    ),
                )
            )
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return  # the nested scope is its own (cold) world
        for child in ast.iter_child_nodes(node):
            self._scan(child, ctx, qualname, findings)
