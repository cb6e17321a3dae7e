"""DRAM device model.

:class:`DramDevice` holds the per-bank timing registers, enforces the
rank-level activation constraints (tRRD, tFAW), counts commands for the
energy model, and hosts an optional *on-DRAM-die* mitigation mechanism
(PRAC or Chronus).  On-die mechanisms observe activations and precharges,
assert the ``alert_n`` back-off signal, and perform victim refreshes when the
memory controller grants them time with an RFM command.

Each bank is a small state machine: it is either *precharged* or has one
*open* row in its row buffer.  The device records, per bank, the earliest
cycle at which each class of command may legally be issued, derived from the
timing parameters in :mod:`repro.dram.timing`.

The device exposes explicit, type-safe methods (``activate``, ``precharge``,
``read`` ...) rather than a single opaque command entry point; the memory
controller is responsible for consulting the ``can_*`` predicates before
issuing, and the device raises :class:`TimingViolation` if a command is
illegal, which the test-suite relies on.  ``tests/bank_reference.py`` holds
the attribute-per-register reference bank the device is differentially
tested against.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.mitigation import OnDieMitigation
from repro.dram.organization import DramOrganization
from repro.dram.timing import TimingParams

#: ``open_rows`` sentinel for a precharged bank (real rows are non-negative).
NO_ROW = -1


class TimingViolation(RuntimeError):
    """Raised when a command is issued before the device allows it."""


@dataclass(slots=True)
class RankState:
    """Rank-level activation window state (tRRD / tFAW)."""

    last_act_cycle: int = -(10**9)
    act_window: Deque[int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.act_window is None:
            self.act_window = deque(maxlen=4)


class DramDevice:
    """A single-channel DRAM device (all ranks and banks of the channel)."""

    def __init__(
        self,
        organization: DramOrganization,
        timing: TimingParams,
        mitigation: Optional[OnDieMitigation] = None,
    ) -> None:
        if mitigation is not None and mitigation.side != "dram":
            raise ValueError(
                f"DramDevice only hosts on-die mechanisms, got {mitigation.name!r}"
            )
        self.organization = organization
        self.timing = timing
        self.mitigation = mitigation
        # The bank timing registers, indexed by flat bank id.  The device
        # mutates these lists in place and never rebinds them, which is what
        # lets the controller and scheduler hoist them once at construction.
        banks = organization.total_banks
        #: Open row per bank (:data:`NO_ROW` = precharged).
        self.open_rows: List[int] = [NO_ROW] * banks
        #: Earliest cycle each command class may be issued, per bank.
        self.next_act: List[int] = [0] * banks
        self.next_pre: List[int] = [0] * banks
        self.next_rd: List[int] = [0] * banks
        self.next_wr: List[int] = [0] * banks
        self._ranks: Dict[int, RankState] = {
            rank: RankState() for rank in range(organization.ranks)
        }
        # Flat bank ids per rank, cached (the hot path asks every tick).
        # Tuples: the cache is handed out by banks_in_rank, so it must be
        # immutable -- a caller mutating it would corrupt the rank geometry.
        per_rank = organization.banks_per_rank
        self._rank_bank_ids: List[Tuple[int, ...]] = [
            tuple(range(rank * per_rank, (rank + 1) * per_rank))
            for rank in range(organization.ranks)
        ]
        #: Command counts, keyed by command mnemonic, for the energy model.
        self.command_counts: Counter = Counter()
        #: Victim rows refreshed internally by the on-die mechanism.
        self.internal_victim_rows = 0
        #: Cycle at which the back-off signal was last asserted (or None).
        self._backoff_observed_cycle: Optional[int] = None
        #: External ACT observers ``(bank_id, row, cycle)`` (e.g. the
        #: red-team disturbance oracle); independent of any mitigation.
        self._activation_listeners: List[Callable[[int, int, int], None]] = []
        # Flattened event fan-out: the mitigation hook and every listener in
        # one pre-bound list, so ``activate``/``precharge`` run a single
        # truthiness check plus direct calls instead of re-testing the
        # registry shape on every command.
        self._act_hooks: List[Callable[[int, int, int], None]] = []
        self._pre_hooks: List[Callable[[int, int, int], None]] = []
        self._rebuild_hooks()

    def _rebuild_hooks(self) -> None:
        """Re-flatten the ACT/PRE fan-out lists (mitigation first)."""
        act_hooks: List[Callable[[int, int, int], None]] = []
        pre_hooks: List[Callable[[int, int, int], None]] = []
        if self.mitigation is not None:
            act_hooks.append(self.mitigation.on_activate)
            pre_hooks.append(self.mitigation.on_precharge)
        act_hooks.extend(self._activation_listeners)
        self._act_hooks = act_hooks
        self._pre_hooks = pre_hooks

    def add_activation_listener(
        self, listener: Callable[[int, int, int], None]
    ) -> None:
        """Subscribe to every ACT issued to this device."""
        self._activation_listeners.append(listener)
        self._rebuild_hooks()

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def rank_of_bank(self, bank_id: int) -> int:
        """Return the rank index that contains flat bank ``bank_id``."""
        return bank_id // self.organization.banks_per_rank

    def banks_in_rank(self, rank: int) -> Tuple[int, ...]:
        """The flat bank ids belonging to ``rank`` (shared cached tuple)."""
        return self._rank_bank_ids[rank]

    # ------------------------------------------------------------------ #
    # Rank-level activation constraints
    # ------------------------------------------------------------------ #
    def _rank_act_allowed(self, rank: int, cycle: int) -> bool:
        state = self._ranks[rank]
        if cycle < state.last_act_cycle + self.timing.tRRD:
            return False
        if len(state.act_window) == state.act_window.maxlen:
            oldest = state.act_window[0]
            if cycle < oldest + self.timing.tFAW:
                return False
        return True

    def _record_rank_act(self, rank: int, cycle: int) -> None:
        state = self._ranks[rank]
        state.last_act_cycle = cycle
        state.act_window.append(cycle)

    # ------------------------------------------------------------------ #
    # Command legality
    # ------------------------------------------------------------------ #
    def can_activate(self, bank_id: int, cycle: int) -> bool:
        return (
            self.open_rows[bank_id] < 0
            and cycle >= self.next_act[bank_id]
            and self._rank_act_allowed(self.rank_of_bank(bank_id), cycle)
        )

    def can_precharge(self, bank_id: int, cycle: int) -> bool:
        return self.open_rows[bank_id] >= 0 and cycle >= self.next_pre[bank_id]

    def can_read(self, bank_id: int, cycle: int) -> bool:
        return self.open_rows[bank_id] >= 0 and cycle >= self.next_rd[bank_id]

    def can_write(self, bank_id: int, cycle: int) -> bool:
        return self.open_rows[bank_id] >= 0 and cycle >= self.next_wr[bank_id]

    def can_refresh(self, rank: int, cycle: int) -> bool:
        """True if every bank in ``rank`` is precharged and ACT-ready."""
        return self.can_rfm(self._rank_bank_ids[rank], cycle)

    def can_rfm(self, bank_ids: Sequence[int], cycle: int) -> bool:
        """True if all target banks are precharged and ready for maintenance."""
        # Early-exit walk: the predicate almost always fails on the first
        # open or busy bank.
        open_rows = self.open_rows
        next_act = self.next_act
        for bank_id in bank_ids:
            if open_rows[bank_id] >= 0 or cycle < next_act[bank_id]:
                return False
        return True

    def _violation(
        self, bank_id: int, command: str, cycle: int, register: str, value: int
    ) -> TimingViolation:
        """The error for an illegal ``command``, naming the blocking register."""
        state = "active" if self.open_rows[bank_id] >= 0 else "idle"
        return TimingViolation(
            f"bank {bank_id}: {command} at cycle {cycle} illegal "
            f"(state={state}, {register}={value})"
        )

    def _block(
        self, command: str, bank_ids: Sequence[int], cycle: int, duration: int
    ) -> None:
        """Block the target banks of a REF or RFM for ``duration`` cycles."""
        next_act = self.next_act
        if not self.can_rfm(bank_ids, cycle):
            for bank_id in bank_ids:
                if not self.can_rfm((bank_id,), cycle):
                    raise self._violation(
                        bank_id, command, cycle, "next_act", next_act[bank_id]
                    )
        # Every target bank is precharged with next_act <= cycle, so the
        # block is a plain store.
        done = cycle + duration
        for bank_id in bank_ids:
            next_act[bank_id] = done

    # ------------------------------------------------------------------ #
    # Command issue
    # ------------------------------------------------------------------ #
    def activate(self, bank_id: int, row: int, cycle: int) -> None:
        """Issue an ACT to ``bank_id`` opening ``row``."""
        rank = self.rank_of_bank(bank_id)
        if not self._rank_act_allowed(rank, cycle):
            raise TimingViolation(
                f"rank {rank}: ACT at cycle {cycle} violates tRRD/tFAW"
            )
        next_act = self.next_act
        if self.open_rows[bank_id] >= 0 or cycle < next_act[bank_id]:
            raise self._violation(
                bank_id, "ACT", cycle, "next_act", next_act[bank_id]
            )
        t = self.timing
        self.open_rows[bank_id] = row
        next_pre = self.next_pre
        pre = cycle + t.tRAS
        if pre > next_pre[bank_id]:
            next_pre[bank_id] = pre
        rcd = cycle + t.tRCD
        self.next_rd[bank_id] = rcd
        self.next_wr[bank_id] = rcd
        act = cycle + t.tRC
        if act > next_act[bank_id]:
            next_act[bank_id] = act
        self._record_rank_act(rank, cycle)
        self.command_counts["ACT"] += 1
        if self._act_hooks:
            for hook in self._act_hooks:
                hook(bank_id, row, cycle)

    def precharge(self, bank_id: int, cycle: int) -> int:
        """Issue a PRE to ``bank_id``.  Returns the closed row."""
        open_rows = self.open_rows
        closed_row = open_rows[bank_id]
        if closed_row < 0 or cycle < self.next_pre[bank_id]:
            raise self._violation(
                bank_id, "PRE", cycle, "next_pre", self.next_pre[bank_id]
            )
        open_rows[bank_id] = NO_ROW
        next_act = self.next_act
        act = cycle + self.timing.tRP
        if act > next_act[bank_id]:
            next_act[bank_id] = act
        self.command_counts["PRE"] += 1
        if self._pre_hooks:
            for hook in self._pre_hooks:
                hook(bank_id, closed_row, cycle)
        return closed_row

    def read(self, bank_id: int, cycle: int) -> int:
        """Issue a RD; return the data-ready cycle."""
        next_rd = self.next_rd
        if self.open_rows[bank_id] < 0 or cycle < next_rd[bank_id]:
            raise self._violation(bank_id, "RD", cycle, "next_rd", next_rd[bank_id])
        t = self.timing
        ccd = cycle + t.tCCD
        next_rd[bank_id] = ccd
        self.next_wr[bank_id] = ccd
        next_pre = self.next_pre
        pre = cycle + t.tRTP
        if pre > next_pre[bank_id]:
            next_pre[bank_id] = pre
        self.command_counts["RD"] += 1
        return cycle + t.tCL + t.tBL

    def write(self, bank_id: int, cycle: int) -> int:
        """Issue a WR; return the completion cycle."""
        next_wr = self.next_wr
        if self.open_rows[bank_id] < 0 or cycle < next_wr[bank_id]:
            raise self._violation(bank_id, "WR", cycle, "next_wr", next_wr[bank_id])
        t = self.timing
        ccd = cycle + t.tCCD
        self.next_rd[bank_id] = ccd
        next_wr[bank_id] = ccd
        completion = cycle + t.tCWL + t.tBL
        next_pre = self.next_pre
        pre = completion + t.tWR
        if pre > next_pre[bank_id]:
            next_pre[bank_id] = pre
        self.command_counts["WR"] += 1
        return completion

    def refresh(self, rank: int, cycle: int) -> None:
        """Issue an all-bank periodic REF to ``rank``."""
        bank_ids = self._rank_bank_ids[rank]
        self._block("REF", bank_ids, cycle, self.timing.tRFC)
        self.command_counts["REF"] += 1
        if self.mitigation is not None:
            self.mitigation.on_periodic_refresh(bank_ids, cycle)

    def rfm(self, bank_ids: Sequence[int], cycle: int) -> int:
        """Issue an RFM covering ``bank_ids``.

        The on-die mechanism (if any) performs its victim refreshes within
        the tRFM window.  Returns the number of victim rows refreshed.
        """
        self._block("RFM", bank_ids, cycle, self.timing.tRFM)
        self.command_counts["RFM"] += 1
        refreshed = 0
        if self.mitigation is not None:
            refreshed = self.mitigation.on_rfm(bank_ids, cycle)
            self.internal_victim_rows += refreshed
        return refreshed

    def victim_refresh(self, bank_id: int, num_rows: int, cycle: int) -> int:
        """Serve a controller-side victim-row refresh (VRR).

        A VRR is an internal ACT+PRE of each victim row, so, like an ACT, it
        needs a precharged bank at or after its ``next_act``; the bank is
        then blocked for ``num_rows * tRC`` cycles.  Returns the cycle at
        which the bank becomes available again.
        """
        next_act = self.next_act
        if self.open_rows[bank_id] >= 0 or cycle < next_act[bank_id]:
            raise self._violation(
                bank_id, "VRR", cycle, "next_act", next_act[bank_id]
            )
        # cycle >= next_act, so the block is a plain store, as in _block.
        done = next_act[bank_id] = cycle + num_rows * self.timing.tRC
        self.command_counts["VRR"] += num_rows
        return done

    # ------------------------------------------------------------------ #
    # Back-off (alert_n) signalling
    # ------------------------------------------------------------------ #
    def backoff_asserted(self) -> bool:
        """State of the alert_n pin (True = back-off requested)."""
        return self.mitigation is not None and self.mitigation.backoff_asserted()

    def wants_more_rfm(self) -> bool:
        """True while the on-die mechanism requests further RFM commands."""
        return self.mitigation is not None and self.mitigation.wants_more_rfm()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def open_row(self, bank_id: int) -> Optional[int]:
        """Currently open row of ``bank_id`` (or None)."""
        row = self.open_rows[bank_id]
        return row if row >= 0 else None

    def total_activations(self) -> int:
        """Total ACT commands issued to the device."""
        return self.command_counts["ACT"]

    def command_count(self, mnemonic: str) -> int:
        """Command count for the given mnemonic (``"ACT"``, ``"RD"``, ...)."""
        return self.command_counts[mnemonic]
