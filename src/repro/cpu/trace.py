"""Memory access traces.

A trace is the unit of workload in this repository (mirroring the Ramulator
trace format the paper uses): a named sequence of entries, each recording how
many non-memory instructions precede a memory access, the accessed physical
address, and whether the access is a write.

Traces can be synthesised (see :mod:`repro.workloads.synthetic`), written to
and read from a simple text format, and concatenated / truncated for the
scaled-down experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """One memory access of a trace.

    Attributes:
        gap_instructions: non-memory instructions executed before this access.
        address: physical byte address of the access (cache-line aligned by
            the consumer).
        is_write: True for a store, False for a load.
    """

    gap_instructions: int
    address: int
    is_write: bool = False


class Trace:
    """A named, immutable sequence of :class:`TraceEntry` objects.

    ``entries`` is a tuple of frozen entries, so one trace can be shared by
    every job that replays it (see
    :func:`repro.experiments.sweep.build_job_traces`).
    """

    def __init__(self, name: str, entries: Sequence[TraceEntry]) -> None:
        if not entries:
            raise ValueError(f"trace {name!r} must contain at least one entry")
        self.name = name
        self.entries: Tuple[TraceEntry, ...] = tuple(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self.entries[index]

    @property
    def total_instructions(self) -> int:
        """Total instructions represented by the trace (memory + non-memory)."""
        return sum(entry.gap_instructions + 1 for entry in self.entries)

    @property
    def memory_accesses(self) -> int:
        """Number of memory accesses in the trace."""
        return len(self.entries)

    @property
    def write_fraction(self) -> float:
        """Fraction of accesses that are writes."""
        writes = sum(1 for entry in self.entries if entry.is_write)
        return writes / len(self.entries)

    def accesses_per_kilo_instruction(self) -> float:
        """Memory accesses per 1000 instructions (pre-cache APKI)."""
        return 1000.0 * self.memory_accesses / max(1, self.total_instructions)

    def truncated(self, max_accesses: int) -> "Trace":
        """Return a copy limited to the first ``max_accesses`` accesses."""
        if max_accesses <= 0:
            raise ValueError("max_accesses must be positive")
        return Trace(self.name, self.entries[:max_accesses])

    # ------------------------------------------------------------------ #
    # Simple text serialisation (one access per line: gap address R|W)
    # ------------------------------------------------------------------ #
    def save(self, path: Path | str) -> None:
        """Write the trace to ``path`` in the text format."""
        path = Path(path)
        with path.open("w", encoding="ascii") as handle:
            for entry in self.entries:
                kind = "W" if entry.is_write else "R"
                handle.write(f"{entry.gap_instructions} 0x{entry.address:x} {kind}\n")

    @classmethod
    def load(cls, path: Path | str, name: str | None = None) -> "Trace":
        """Read a trace previously written by :meth:`save`."""
        path = Path(path)
        entries = []
        with path.open("r", encoding="ascii") as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                gap_text, address_text, kind = line.split()
                entries.append(
                    TraceEntry(
                        gap_instructions=int(gap_text),
                        address=int(address_text, 16),
                        is_write=(kind.upper() == "W"),
                    )
                )
        return cls(name or path.stem, entries)
