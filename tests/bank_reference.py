"""Attribute-per-register reference bank for the bank differential tests.

:class:`ObjectBank` keeps every timing register of one DRAM bank as a plain
Python attribute.  It is the simple, obviously-correct model the device's
register lists are checked against: ``tests/test_bank_backends.py`` drives
bank 0 of a :class:`~repro.dram.device.DramDevice` and an ``ObjectBank``
through the same randomized command streams and requires identical
registers, legality decisions, command counts and
:class:`~repro.dram.device.TimingViolation` messages.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.dram.device import TimingViolation
from repro.dram.timing import TimingParams


class BankState(enum.Enum):
    """Row-buffer state of a bank."""

    IDLE = "idle"
    ACTIVE = "active"


@dataclass(slots=True)
class BankStats:
    """Per-bank command counts."""

    activations: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    victim_refreshes: int = 0


class ObjectBank:
    """The original attribute-per-register bank (reference model)."""

    __slots__ = (
        "bank_id", "timing", "state", "open_row", "stats",
        "_next_act", "_next_pre", "_next_rd", "_next_wr", "last_act_cycle",
    )

    def __init__(self, bank_id: int, timing: TimingParams) -> None:
        self.bank_id = bank_id
        self.timing = timing
        self.state = BankState.IDLE
        self.open_row: Optional[int] = None
        self.stats = BankStats()

        # Earliest cycle each command class may be issued.
        self._next_act = 0
        self._next_pre = 0
        self._next_rd = 0
        self._next_wr = 0

        #: Cycle at which the currently open row was activated.
        self.last_act_cycle: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def ready_cycle_for_activate(self) -> int:
        """Earliest cycle at which an ACT could be legal (ignoring state)."""
        return self._next_act

    def ready_cycle_for_precharge(self) -> int:
        """Earliest cycle at which a PRE could be legal (ignoring state)."""
        return self._next_pre

    def ready_cycle_for_read(self) -> int:
        """Earliest cycle at which a RD could be legal (ignoring state)."""
        return self._next_rd

    def ready_cycle_for_write(self) -> int:
        """Earliest cycle at which a WR could be legal (ignoring state)."""
        return self._next_wr

    def is_open(self, row: Optional[int] = None) -> bool:
        """Return True if the bank has an open row (optionally a given row)."""
        open_row = self.open_row
        if open_row is None:
            return False
        return row is None or open_row == row

    # ------------------------------------------------------------------ #
    # Legality predicates
    # ------------------------------------------------------------------ #
    def can_activate(self, cycle: int) -> bool:
        """Return True if an ACT may be issued at ``cycle``."""
        return self.state is BankState.IDLE and cycle >= self._next_act

    def can_precharge(self, cycle: int) -> bool:
        """Return True if a PRE may be issued at ``cycle``."""
        return self.state is BankState.ACTIVE and cycle >= self._next_pre

    def can_read(self, cycle: int) -> bool:
        """Return True if a RD may be issued at ``cycle``."""
        return self.state is BankState.ACTIVE and cycle >= self._next_rd

    def can_write(self, cycle: int) -> bool:
        """Return True if a WR may be issued at ``cycle``."""
        return self.state is BankState.ACTIVE and cycle >= self._next_wr

    # ------------------------------------------------------------------ #
    # Command issue
    # ------------------------------------------------------------------ #
    def activate(self, row: int, cycle: int) -> None:
        """Open ``row`` in the row buffer."""
        if not self.can_activate(cycle):
            raise TimingViolation(
                f"bank {self.bank_id}: ACT at cycle {cycle} illegal "
                f"(state={self.state.value}, next_act={self._next_act})"
            )
        t = self.timing
        self.state = BankState.ACTIVE
        self.open_row = row
        self.last_act_cycle = cycle
        self.stats.activations += 1
        self._next_pre = max(self._next_pre, cycle + t.tRAS)
        self._next_rd = cycle + t.tRCD
        self._next_wr = cycle + t.tRCD
        self._next_act = max(self._next_act, cycle + t.tRC)

    def precharge(self, cycle: int) -> int:
        """Close the open row.  Returns the row that was closed."""
        if not self.can_precharge(cycle):
            raise TimingViolation(
                f"bank {self.bank_id}: PRE at cycle {cycle} illegal "
                f"(state={self.state.value}, next_pre={self._next_pre})"
            )
        t = self.timing
        closed_row = self.open_row
        assert closed_row is not None
        self.state = BankState.IDLE
        self.open_row = None
        self.stats.precharges += 1
        self._next_act = max(self._next_act, cycle + t.tRP)
        return closed_row

    def read(self, cycle: int) -> int:
        """Issue a RD; return the cycle at which data is available."""
        if not self.can_read(cycle):
            raise TimingViolation(
                f"bank {self.bank_id}: RD at cycle {cycle} illegal "
                f"(state={self.state.value}, next_rd={self._next_rd})"
            )
        t = self.timing
        self.stats.reads += 1
        self._next_rd = cycle + t.tCCD
        self._next_wr = cycle + t.tCCD
        self._next_pre = max(self._next_pre, cycle + t.tRTP)
        return cycle + t.tCL + t.tBL

    def write(self, cycle: int) -> int:
        """Issue a WR; return the cycle at which the write completes."""
        if not self.can_write(cycle):
            raise TimingViolation(
                f"bank {self.bank_id}: WR at cycle {cycle} illegal "
                f"(state={self.state.value}, next_wr={self._next_wr})"
            )
        t = self.timing
        self.stats.writes += 1
        self._next_rd = cycle + t.tCCD
        self._next_wr = cycle + t.tCCD
        completion = cycle + t.tCWL + t.tBL
        self._next_pre = max(self._next_pre, completion + t.tWR)
        return completion

    def _require_act_ready(self, command: str, cycle: int) -> None:
        """Raise unless the bank is precharged and could take an ACT."""
        if not self.can_activate(cycle):
            raise TimingViolation(
                f"bank {self.bank_id}: {command} at cycle {cycle} illegal "
                f"(state={self.state.value}, next_act={self._next_act})"
            )

    def block(self, cycle: int, duration: int, command: str = "RFM") -> None:
        """Block the bank for a REF or RFM ``command`` of ``duration`` cycles.

        Like the device, the bank must be precharged and past its
        ``next_act``.  All commands to the bank are delayed until
        ``cycle + duration``.
        """
        self._require_act_ready(command, cycle)
        self._next_act = max(self._next_act, cycle + duration)

    def victim_refresh(self, cycle: int, rows: int = 1) -> int:
        """Model a controller-side victim-row refresh (VRR).

        A victim-row refresh is an internal ACT+PRE of the victim row, so it
        needs a bank that could take an ACT; the bank is then blocked for
        ``rows * tRC`` cycles.  Returns the cycle at which the bank becomes
        available again.
        """
        self._require_act_ready("VRR", cycle)
        duration = rows * self.timing.tRC
        self.stats.victim_refreshes += rows
        self._next_act = max(self._next_act, cycle + duration)
        return cycle + duration
