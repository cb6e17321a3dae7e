#!/usr/bin/env python3
"""Check that relative links in the repository's Markdown files resolve.

Scans every ``*.md`` file under the repository root (skipping dot-directories
and caches) for inline Markdown links ``[text](target)`` and verifies that
each *relative* target exists on disk.  External links (``http(s)://``,
``mailto:``) are skipped.  A ``#fragment`` -- on a relative ``.md`` target or
alone, as an in-page link -- must name a heading of the target file, slugged
the way GitHub does: lowercase, drop every character except letters, digits,
``-``, ``_`` and space, turn spaces into ``-``, and add ``-1``, ``-2`` for
repeated headings.  Headings inside fenced code are not headings.

Exit status: 0 when every link resolves, 1 otherwise (one diagnostic line per
broken link) -- suitable as a CI step and callable from the test suite.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: Inline Markdown link: [text](target).  Images ![alt](target) match too via
#: the optional leading "!".
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Directories never scanned (caches, VCS internals, virtualenvs).
SKIPPED_DIRS = {".git", ".repro-cache", ".ci-cache", "__pycache__", ".venv", "node_modules"}

#: Generated retrieval artifacts (paper extraction leaves dangling figure
#: references in them); only hand-written documentation is checked.
SKIPPED_FILES = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}

#: Link schemes that are not local files.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: ATX heading: up to three spaces of indent, 1-6 ``#``, then the text (an
#: optional closing ``#`` run is not part of it).
HEADING_PATTERN = re.compile(r"^ {0,3}#{1,6}[ \t]+(.*?)(?:[ \t]+#+)?[ \t]*$")

#: Opening or closing line of a fenced code block.
FENCE_PATTERN = re.compile(r"^ {0,3}(`{3,}|~{3,})")

#: An inline link inside a heading slugs as its text alone.
INLINE_LINK_PATTERN = re.compile(r"!?\[([^\]]*)\]\([^)]*\)")

#: Characters a GitHub heading slug drops.
SLUG_DROPPED = re.compile(r"[^\w\- ]")


def markdown_files(root: Path) -> Iterator[Path]:
    """Every ``*.md`` file under ``root``, skipping ignored directories."""
    for path in sorted(root.rglob("*.md")):
        if any(part in SKIPPED_DIRS for part in path.parts):
            continue
        if path.name in SKIPPED_FILES:
            continue
        yield path


def extract_links(text: str) -> List[str]:
    """All inline link targets of a Markdown document."""
    return LINK_PATTERN.findall(text)


def heading_slugs(text: str) -> Set[str]:
    """The GitHub anchor slug of every heading of a Markdown document."""
    slugs: Set[str] = set()
    repeats: Dict[str, int] = {}
    fence: Optional[str] = None
    for line in text.splitlines():
        marker = FENCE_PATTERN.match(line)
        if marker is not None:
            run = marker.group(1)
            if fence is None:
                fence = run
            elif run[0] == fence[0] and len(run) >= len(fence):
                fence = None
            continue
        heading = None if fence is not None else HEADING_PATTERN.match(line)
        if heading is None:
            continue
        title = INLINE_LINK_PATTERN.sub(r"\1", heading.group(1)).lower()
        slug = SLUG_DROPPED.sub("", title).replace(" ", "-")
        seen = repeats.get(slug, 0)
        repeats[slug] = seen + 1
        slugs.add(f"{slug}-{seen}" if seen else slug)
    return slugs


def broken_links(root: Path) -> List[Tuple[Path, str, str]]:
    """All (file, target, problem) triples whose target does not resolve."""
    broken: List[Tuple[Path, str, str]] = []
    slugs: Dict[Path, Set[str]] = {}
    for markdown in markdown_files(root):
        for target in extract_links(markdown.read_text(encoding="utf-8")):
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            local, _, fragment = target.partition("#")
            resolved = (markdown.parent / local).resolve() if local else markdown
            if not resolved.exists():
                broken.append((markdown, target, "broken relative link"))
                continue
            if not fragment or resolved.suffix != ".md":
                continue
            if resolved not in slugs:
                slugs[resolved] = heading_slugs(resolved.read_text(encoding="utf-8"))
            if fragment not in slugs[resolved]:
                broken.append((markdown, target, "no heading for anchor"))
    return broken


def main(argv: List[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    problems = broken_links(root)
    checked = len(list(markdown_files(root)))
    for markdown, target, problem in problems:
        print(f"{markdown.relative_to(root)}: {problem} -> {target}")
    if problems:
        print(f"{len(problems)} broken link(s) across {checked} Markdown files")
        return 1
    print(f"all relative links resolve across {checked} Markdown files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
