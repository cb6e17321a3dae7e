"""Class-level span tracer for the end-to-end benchmark.

A :class:`Span` names one layer boundary: a function attribute on one or
more owners (classes or modules).  :meth:`Tracer.installed` replaces every
such attribute with a timing wrapper for the duration of a ``with`` block
and restores the originals afterwards.  The wrappers must be installed
before the simulator is built, because several entry points are bound at
construction (the device's ACT/PRE hook lists, the core's LLC probe, the
router's single-channel tick).

Time is aggregated in memory per ``(parent span, span)`` edge -- the hottest
entry point runs millions of times per round, far too often to keep a record
per call.  A span's self time is its duration minus the durations of the
traced spans it called, so the self times of all spans add up to the time
covered by the outermost spans.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Parent name of spans entered outside every other span.
ROOT = "<round>"

#: ``Span.outcome`` values: count calls whose result is truthy, or whose
#: first tuple element is.
TRUTHY = "truthy"
FIRST = "first"


@dataclass(frozen=True)
class Span:
    """One traced layer boundary.

    Attributes:
        name: metric prefix, ``<layer>.<entry point>``.
        owners: classes or modules holding the wrapped functions.  Every
            owner that defines an attribute in its own namespace gets it
            wrapped, so subclasses that inherit it are covered too.
        attributes: function names wrapped under this one span.
        outcome: ``TRUTHY``/``FIRST`` to also count successful calls.
    """

    name: str
    owners: Tuple[object, ...]
    attributes: Tuple[str, ...]
    outcome: Optional[str] = None


class Tracer:
    """Aggregates per-edge call counts, inclusive time and self time."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans: Tuple[Span, ...] = tuple(spans)
        #: (parent, span) -> [calls, inclusive seconds, self seconds, hits]
        self.edges: Dict[Tuple[str, str], List] = {}
        self._stack: List[List] = [[ROOT, 0.0]]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every span's attributes for the duration of the block."""
        patched: List[Tuple[object, str, Callable]] = []
        try:
            for span in self.spans:
                count = 0
                for owner in span.owners:
                    namespace = vars(owner)
                    for attribute in span.attributes:
                        function = namespace.get(attribute)
                        if function is None:
                            continue
                        setattr(owner, attribute, self._wrap(span, function))
                        patched.append((owner, attribute, function))
                        count += 1
                if not count:
                    raise AttributeError(
                        f"span {span.name} found none of {span.attributes} on "
                        f"its owners (stale span registry?)"
                    )
            yield self
        finally:
            for owner, attribute, function in reversed(patched):
                setattr(owner, attribute, function)

    def _wrap(self, span: Span, function: Callable) -> Callable:
        name = span.name
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter
        count_hits = span.outcome is not None
        first = span.outcome == FIRST

        @functools.wraps(function)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = (parent[0], name)
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if count_hits and (result[0] if first else result):
                edge[3] += 1
            return result

        return traced

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span: ``calls``, ``total_s`` (inclusive), ``self_s``, ``hits``."""
        totals = {
            span.name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0}
            for span in self.spans
        }
        for (_parent, name), (calls, total, own, hits) in self.edges.items():
            entry = totals[name]
            entry["calls"] += calls
            entry["total_s"] += total
            entry["self_s"] += own
            entry["hits"] += hits
        return totals

    def edge_table(self) -> List[Dict[str, object]]:
        """The raw edges, heaviest self time first (for the results file)."""
        rows = [
            {"parent": parent, "span": name, "calls": calls,
             "total_s": total, "self_s": own}
            for (parent, name), (calls, total, own, _hits) in self.edges.items()
        ]
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        return rows
