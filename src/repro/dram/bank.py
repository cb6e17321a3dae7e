"""Per-bank state machine and timing enforcement.

Each DRAM bank is a small finite state machine: it is either *idle*
(precharged) or has one *open* row in its row buffer.  The bank records the
earliest cycle at which each class of command may legally be issued, derived
from the timing parameters in :mod:`repro.dram.timing`.

The bank intentionally refuses illegal commands by raising
:class:`TimingViolation`; the memory controller is expected to consult the
``can_*`` predicates before issuing.  This mirrors how cycle-accurate DRAM
simulators (e.g. Ramulator 2.0) separate scheduling from device legality
checks and lets the test-suite verify both layers independently.

Storage
-------

The registers live in a shared
:class:`~repro.dram.timing_plane.BankArrayTiming` structure-of-arrays plane
owned by the device, and a :class:`Bank` is a thin *view* over one slot.
The view keeps the full per-bank API -- every ``can_*`` /
``ready_cycle_for_*`` caller keeps working, and ``state`` / ``open_row`` /
``last_act_cycle`` resolve through properties -- while the controller's
readiness scans read the plane arrays directly.  ``tests/bank_reference.py``
holds the attribute-per-register reference model the view is differentially
tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.dram.timing import TimingParams
from repro.dram.timing_plane import NO_ROW, BankArrayTiming


class TimingViolation(RuntimeError):
    """Raised when a command is issued before the device allows it."""


class BankState(enum.Enum):
    """Row-buffer state of a bank."""

    IDLE = "idle"
    ACTIVE = "active"


@dataclass(slots=True)
class BankStats:
    """Per-bank command statistics (used by the energy model and tests)."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    victim_refreshes: int = 0

    def merge(self, other: "BankStats") -> None:
        """Accumulate another stats record into this one."""
        self.activations += other.activations
        self.precharges += other.precharges
        self.reads += other.reads
        self.writes += other.writes
        self.victim_refreshes += other.victim_refreshes


class Bank:
    """A single DRAM bank: a view over one slot of a timing plane.

    The plane arrays are the single source of truth; every command method
    writes them in place and every register read returns a plain Python
    value, so no NumPy scalar ever leaks into stats, request fields or
    cached payloads.  The view caches the plane's memoryview twins (the
    plane never reallocates its arrays -- :meth:`BankArrayTiming.reset`
    fills in place), so a register access is one plain-int indexing
    operation.  A standalone bank allocates its own single-slot plane; the
    device passes a shared per-channel plane plus the bank's flat index.
    """

    __slots__ = (
        "bank_id", "timing", "stats", "plane", "index",
        "_a_act", "_a_pre", "_a_rd", "_a_wr", "_a_row", "_a_last",
    )

    def __init__(
        self,
        bank_id: int,
        timing: TimingParams,
        *,
        plane: Optional[BankArrayTiming] = None,
        index: Optional[int] = None,
    ) -> None:
        if plane is None:
            # Standalone construction (tests, tooling): a private
            # single-slot plane keeps the full API working without a device.
            plane = BankArrayTiming(1)
            index = 0
        elif index is None:
            raise ValueError("a shared plane requires an explicit slot index")
        self.bank_id = bank_id
        self.timing = timing
        self.stats = BankStats()
        self.plane = plane
        self.index = index
        self._a_act = plane.next_act_mv
        self._a_pre = plane.next_pre_mv
        self._a_rd = plane.next_rd_mv
        self._a_wr = plane.next_wr_mv
        self._a_row = plane.open_row_mv
        self._a_last = plane.last_act_mv

    # ------------------------------------------------------------------ #
    # Register views
    # ------------------------------------------------------------------ #
    @property
    def state(self) -> BankState:
        return BankState.ACTIVE if self._a_row[self.index] >= 0 else BankState.IDLE

    @property
    def open_row(self) -> Optional[int]:
        row = self._a_row[self.index]
        return row if row >= 0 else None

    @property
    def last_act_cycle(self) -> Optional[int]:
        """Cycle at which the currently open row was activated."""
        last = self._a_last[self.index]
        return last if last >= 0 else None

    def ready_cycle_for_activate(self) -> int:
        """Earliest cycle at which an ACT could be legal (ignoring state)."""
        return self._a_act[self.index]

    def ready_cycle_for_precharge(self) -> int:
        """Earliest cycle at which a PRE could be legal (ignoring state)."""
        return self._a_pre[self.index]

    def ready_cycle_for_read(self) -> int:
        """Earliest cycle at which a RD could be legal (ignoring state)."""
        return self._a_rd[self.index]

    def ready_cycle_for_write(self) -> int:
        """Earliest cycle at which a WR could be legal (ignoring state)."""
        return self._a_wr[self.index]

    def is_open(self, row: Optional[int] = None) -> bool:
        """Return True if the bank has an open row (optionally a given row)."""
        open_row = self.open_row
        if open_row is None:
            return False
        return row is None or open_row == row

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Bank(id={self.bank_id}, state={self.state.value}, "
            f"open_row={self.open_row})"
        )

    # ------------------------------------------------------------------ #
    # Legality predicates
    # ------------------------------------------------------------------ #
    def can_activate(self, cycle: int) -> bool:
        """Return True if an ACT may be issued at ``cycle``."""
        i = self.index
        return self._a_row[i] < 0 and cycle >= self._a_act[i]

    def can_precharge(self, cycle: int) -> bool:
        """Return True if a PRE may be issued at ``cycle``."""
        i = self.index
        return self._a_row[i] >= 0 and cycle >= self._a_pre[i]

    def can_read(self, cycle: int) -> bool:
        """Return True if a RD may be issued at ``cycle``."""
        i = self.index
        return self._a_row[i] >= 0 and cycle >= self._a_rd[i]

    def can_write(self, cycle: int) -> bool:
        """Return True if a WR may be issued at ``cycle``."""
        i = self.index
        return self._a_row[i] >= 0 and cycle >= self._a_wr[i]

    # ------------------------------------------------------------------ #
    # Command issue
    # ------------------------------------------------------------------ #
    def activate(self, row: int, cycle: int) -> None:
        """Open ``row`` in the row buffer."""
        i = self.index
        if not (self._a_row[i] < 0 and cycle >= self._a_act[i]):
            raise TimingViolation(
                f"bank {self.bank_id}: ACT at cycle {cycle} illegal "
                f"(state={self.state}, next_act={self._a_act[i]})"
            )
        t = self.timing
        self._a_row[i] = row
        self._a_last[i] = cycle
        self.stats.activations += 1
        pre = cycle + t.tRAS
        if pre > self._a_pre[i]:
            self._a_pre[i] = pre
        rcd = cycle + t.tRCD
        self._a_rd[i] = rcd
        self._a_wr[i] = rcd
        act = cycle + t.tRC
        if act > self._a_act[i]:
            self._a_act[i] = act

    def precharge(self, cycle: int) -> int:
        """Close the open row.  Returns the row that was closed."""
        i = self.index
        if not (self._a_row[i] >= 0 and cycle >= self._a_pre[i]):
            raise TimingViolation(
                f"bank {self.bank_id}: PRE at cycle {cycle} illegal "
                f"(state={self.state}, next_pre={self._a_pre[i]})"
            )
        closed_row = self._a_row[i]
        self._a_row[i] = NO_ROW
        self.stats.precharges += 1
        act = cycle + self.timing.tRP
        if act > self._a_act[i]:
            self._a_act[i] = act
        return closed_row

    def read(self, cycle: int) -> int:
        """Issue a RD; return the cycle at which data is available."""
        i = self.index
        if not (self._a_row[i] >= 0 and cycle >= self._a_rd[i]):
            raise TimingViolation(
                f"bank {self.bank_id}: RD at cycle {cycle} illegal "
                f"(state={self.state}, next_rd={self._a_rd[i]})"
            )
        t = self.timing
        self.stats.reads += 1
        ccd = cycle + t.tCCD
        self._a_rd[i] = ccd
        self._a_wr[i] = ccd
        pre = cycle + t.tRTP
        if pre > self._a_pre[i]:
            self._a_pre[i] = pre
        return cycle + t.tCL + t.tBL

    def write(self, cycle: int) -> int:
        """Issue a WR; return the cycle at which the write completes."""
        i = self.index
        if not (self._a_row[i] >= 0 and cycle >= self._a_wr[i]):
            raise TimingViolation(
                f"bank {self.bank_id}: WR at cycle {cycle} illegal "
                f"(state={self.state}, next_wr={self._a_wr[i]})"
            )
        t = self.timing
        self.stats.writes += 1
        ccd = cycle + t.tCCD
        self._a_rd[i] = ccd
        self._a_wr[i] = ccd
        completion = cycle + t.tCWL + t.tBL
        pre = completion + t.tWR
        if pre > self._a_pre[i]:
            self._a_pre[i] = pre
        return completion

    def block(self, cycle: int, duration: int) -> None:
        """Block the bank (REF / RFM / internal maintenance) for ``duration``.

        The bank must be precharged.  All commands to the bank are delayed
        until ``cycle + duration``.
        """
        i = self.index
        if self._a_row[i] >= 0:
            raise TimingViolation(
                f"bank {self.bank_id}: cannot block an open bank at cycle {cycle}"
            )
        act = cycle + duration
        if act > self._a_act[i]:
            self._a_act[i] = act

    def victim_refresh(self, cycle: int, rows: int = 1) -> int:
        """Model a controller-side victim-row refresh (VRR).

        A victim-row refresh is an internal ACT+PRE of the victim row; the
        bank is blocked for ``rows * tRC`` cycles.  Returns the cycle at
        which the bank becomes available again.
        """
        i = self.index
        if self._a_row[i] >= 0:
            raise TimingViolation(
                f"bank {self.bank_id}: VRR requires a precharged bank at cycle {cycle}"
            )
        duration = rows * self.timing.tRC
        self.stats.victim_refreshes += rows
        act = cycle + duration
        if act > self._a_act[i]:
            self._a_act[i] = act
        return cycle + duration
