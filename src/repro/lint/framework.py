"""The reprolint core: findings, the Rule API, suppressions, the engine.

reprolint is a *project-aware* static checker: its rules encode invariants
of **this** codebase (the no-reflection posture of the artifact parsers,
the allocation-free hot path, run-to-run determinism, canonical-JSON-only
payloads, cache-key completeness, the event-horizon hint registry) that
generic linters cannot know about.  The framework is deliberately small:

* :class:`Finding` -- one diagnostic: a rule firing at a source location.
* :class:`Rule` -- an AST-visitor rule.  Subclasses declare ``name`` /
  ``description`` and implement ``visit_<NodeType>`` methods; the engine
  parses each file once and dispatches every node to every applicable
  rule.  ``applies_to`` scopes a rule to path prefixes.
* :class:`ProjectRule` -- a whole-tree rule (cross-file invariants such as
  the cache-key completeness check) run once over the parsed project.
* Inline suppressions -- ``# reprolint: disable=RULE -- reason`` silences
  the named rule(s) on that line (or, on a comment-only line, on the next
  statement), and is the only way to accept a finding.  The reason text is
  **mandatory**: a reasonless or unknown suppression is itself a finding
  (rule ``bad-suppression``), so every accepted exception carries its
  justification in the source.

The engine never imports the code it checks -- everything is
``ast.parse`` -- so linting cannot execute side effects and works on trees
that do not import (a syntax error becomes a ``parse-error`` finding).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Rules the engine itself emits (not suppressible -- they guard the
#: suppression mechanism).
META_RULE_BAD_SUPPRESSION = "bad-suppression"
META_RULE_PARSE_ERROR = "parse-error"

#: Directive grammar (in a comment): ``reprolint: disable=RULE[,RULE...]
#: -- reason``.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable\s*=\s*"
    r"(?P<rules>[A-Za-z0-9_,-]+)"
    r"(?:\s*--\s*(?P<reason>\S.*))?"
)

#: Directories never scanned.
_SKIPPED_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule firing at a source location."""

    rule: str
    path: str  #: repo-relative POSIX path
    line: int
    col: int
    message: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass
class Suppression:
    """One parsed ``# reprolint:`` directive.

    ``applies_to`` is the line the directive silences: the directive's own
    line for a trailing comment, or the next statement line for a
    comment-only line (so long reasons can sit above the code they cover).
    """

    line: int
    applies_to: int
    rules: Tuple[str, ...]
    reason: str


class FileContext:
    """One parsed source file plus its suppression directives."""

    def __init__(self, rel_path: str, source: str, tree: ast.Module) -> None:
        self.rel_path = rel_path
        self.source = source
        self.tree = tree
        self.suppressions: List[Suppression] = _parse_suppressions(source)
        #: line -> set of rule names disabled on that line
        self.line_disables: Dict[int, set] = {}
        for directive in self.suppressions:
            if not directive.reason:
                continue  # reasonless directives are findings, not suppressions
            self.line_disables.setdefault(directive.applies_to, set()).update(
                directive.rules
            )

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in (META_RULE_BAD_SUPPRESSION, META_RULE_PARSE_ERROR):
            return False
        return finding.rule in self.line_disables.get(finding.line, set())


def _parse_suppressions(source: str) -> List[Suppression]:
    """Directives from real ``#`` comments only.

    Tokenizing (rather than regexing raw lines) means a directive quoted
    inside a docstring or string literal -- e.g. documentation *about*
    suppressions -- is never treated as one.
    """
    directives: List[Suppression] = []
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return []  # unparsable files surface as parse-error findings instead

    def _is_comment_only(lineno: int) -> bool:
        text = lines[lineno - 1].strip() if lineno <= len(lines) else ""
        return not text or text.startswith("#")

    for lineno, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if match is None:
            continue
        rules = tuple(
            name.strip() for name in match.group("rules").split(",") if name.strip()
        )
        applies_to = lineno
        if _is_comment_only(lineno):
            # A standalone directive covers the next statement line (a
            # multi-line reason block may sit between them).
            cursor = lineno + 1
            while cursor <= len(lines) and _is_comment_only(cursor):
                cursor += 1
            applies_to = cursor
        directives.append(
            Suppression(
                line=lineno,
                applies_to=applies_to,
                rules=rules,
                reason=(match.group("reason") or "").strip(),
            )
        )
    return directives


class Project:
    """The parsed file set a lint run operates on."""

    def __init__(self, root: Path, files: Dict[str, FileContext]) -> None:
        self.root = root
        self.files = files  #: rel_path -> FileContext

    def get(self, rel_path: str) -> Optional[FileContext]:
        return self.files.get(rel_path)

    def read_text(self, rel_path: str) -> Optional[str]:
        """Read a non-Python project file (e.g. a Markdown doc)."""
        path = self.root / rel_path
        if not path.is_file():
            return None
        return path.read_text(encoding="utf-8")


class Rule:
    """An AST-visitor rule: implement ``visit_<NodeType>(node, ctx)``.

    ``ctx`` is the :class:`FileContext`; report diagnostics by returning a
    list of :class:`Finding` from a visit method (or ``None``).  Use
    :meth:`finding` to build one with the rule name and location filled in.
    ``begin_file`` runs before dispatch and may prescan (e.g. imports).
    """

    name: str = ""
    description: str = ""

    #: Path prefixes (POSIX, repo-relative) the rule applies to.  An entry
    #: ending in "/" matches the subtree; otherwise the exact file.
    targets: Tuple[str, ...] = ()

    def applies_to(self, rel_path: str) -> bool:
        if not self.targets:
            return True
        for target in self.targets:
            if target.endswith("/"):
                if rel_path.startswith(target):
                    return True
            elif rel_path == target:
                return True
        return False

    def begin_file(self, ctx: FileContext) -> None:
        """Hook run once per file before node dispatch."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def _dispatch_table(self) -> Dict[type, str]:
        """node type -> visit method name, resolved once per rule instance."""
        table: Dict[type, str] = {}
        for attr in dir(self):
            if not attr.startswith("visit_"):
                continue
            node_type = getattr(ast, attr[len("visit_"):], None)
            if isinstance(node_type, type) and issubclass(node_type, ast.AST):
                table[node_type] = attr
        return table


class ProjectRule(Rule):
    """A whole-tree rule: one pass over the parsed project."""

    def check_project(self, project: Project) -> List[Finding]:
        raise NotImplementedError


@dataclass
class LintResult:
    """Everything a lint run produced."""

    root: Path
    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules: Tuple[str, ...] = ()


def discover_files(root: Path, paths: Sequence[str]) -> List[Path]:
    """Every ``*.py`` file under ``root`` restricted to ``paths``."""
    seen = {}
    for entry in paths:
        base = root / entry
        if base.is_file() and base.suffix == ".py":
            seen[base] = None
            continue
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if any(part in _SKIPPED_DIRS for part in path.parts):
                continue
            seen[path] = None
    return list(seen)


def parse_project(
    root: Path, paths: Sequence[str]
) -> Tuple[Project, List[Finding]]:
    """Parse every discovered file; syntax errors become findings."""
    root = root.resolve()
    files: Dict[str, FileContext] = {}
    errors: List[Finding] = []
    for path in discover_files(root, paths):
        rel_path = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=rel_path)
        except SyntaxError as error:
            errors.append(
                Finding(
                    rule=META_RULE_PARSE_ERROR,
                    path=rel_path,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        files[rel_path] = FileContext(rel_path, source, tree)
    return Project(root, files), errors


def _suppression_findings(ctx: FileContext, known_rules: set) -> List[Finding]:
    findings: List[Finding] = []
    for directive in ctx.suppressions:
        if not directive.reason:
            findings.append(
                Finding(
                    rule=META_RULE_BAD_SUPPRESSION,
                    path=ctx.rel_path,
                    line=directive.line,
                    col=0,
                    message=(
                        "suppression without a reason: write "
                        "'# reprolint: disable=RULE -- why this is safe'"
                    ),
                )
            )
        for rule_name in directive.rules:
            if rule_name not in known_rules:
                findings.append(
                    Finding(
                        rule=META_RULE_BAD_SUPPRESSION,
                        path=ctx.rel_path,
                        line=directive.line,
                        col=0,
                        message=f"suppression names unknown rule {rule_name!r}",
                    )
                )
    return findings


def run_rules(
    project: Project,
    rules: Sequence[Rule],
    parse_errors: Iterable[Finding] = (),
) -> LintResult:
    """Dispatch every node of every file to every applicable rule."""
    findings: List[Finding] = list(parse_errors)
    known_rules = {rule.name for rule in rules}
    node_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    tables = {rule.name: rule._dispatch_table() for rule in node_rules}

    for rel_path in sorted(project.files):
        ctx = project.files[rel_path]
        findings.extend(_suppression_findings(ctx, known_rules))
        active = [r for r in node_rules if r.applies_to(rel_path)]
        if not active:
            continue
        for rule in active:
            rule.begin_file(ctx)
        raw: List[Finding] = []
        for node in ast.walk(ctx.tree):
            for rule in active:
                method = tables[rule.name].get(type(node))
                if method is None:
                    continue
                produced = getattr(rule, method)(node, ctx)
                if produced:
                    raw.extend(produced)
        findings.extend(f for f in raw if not ctx.suppressed(f))

    for rule in project_rules:
        for finding in rule.check_project(project):
            ctx = project.get(finding.path)
            if ctx is not None and ctx.suppressed(finding):
                continue
            findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return LintResult(
        root=project.root,
        findings=findings,
        files_scanned=len(project.files),
        rules=tuple(sorted(known_rules)),
    )
