"""DRAM device model.

:class:`DramDevice` aggregates the per-bank state machines, enforces the
rank-level activation constraints (tRRD, tFAW), counts commands for the
energy model, and hosts an optional *on-DRAM-die* mitigation mechanism
(PRAC or Chronus).  On-die mechanisms observe activations and precharges,
assert the ``alert_n`` back-off signal, and perform victim refreshes when the
memory controller grants them time with an RFM command.

The device exposes explicit, type-safe methods (``activate``, ``precharge``,
``read`` ...) rather than a single opaque command entry point; the memory
controller is responsible for consulting the ``can_*`` predicates before
issuing, and the device raises :class:`~repro.dram.bank.TimingViolation` if a
command is illegal, which the test-suite relies on.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mitigation import OnDieMitigation
from repro.dram.bank import Bank, TimingViolation
from repro.dram.organization import DramOrganization
from repro.dram.timing import TimingParams
from repro.dram.timing_plane import BankArrayTiming


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
        timing_plane: Optional[BankArrayTiming] = None,
    ) -> None:
        if mitigation is not None and mitigation.side != "dram":
            raise ValueError(
                f"DramDevice only hosts on-die mechanisms, got {mitigation.name!r}"
            )
        self.organization = organization
        self.timing = timing
        self.mitigation = mitigation
        # The bank timing registers (see dram/timing_plane.py).  A
        # pre-allocated plane (the batch engine pools them like counter
        # buffers) is reset here, so a pooled buffer's history can never
        # leak into a new device.
        if timing_plane is None:
            timing_plane = BankArrayTiming(organization.total_banks)
        else:
            if timing_plane.num_banks != organization.total_banks:
                raise ValueError(
                    f"timing plane has {timing_plane.num_banks} banks, "
                    f"organization needs {organization.total_banks}"
                )
            timing_plane.reset()
        #: The structure-of-arrays timing registers the controller scans.
        self.timing_plane = timing_plane
        self.banks: List[Bank] = [
            Bank(bank_id, timing, plane=timing_plane, index=bank_id)
            for bank_id in range(organization.total_banks)
        ]
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
        # Per-rank contiguous slices into the plane arrays (flat bank ids of
        # a rank are consecutive), for the vectorized REF update.
        self._rank_slices: List[slice] = [
            slice(rank * per_rank, (rank + 1) * per_rank)
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
        bank = self.banks[bank_id]
        rank = self.rank_of_bank(bank_id)
        return bank.can_activate(cycle) and self._rank_act_allowed(rank, cycle)

    def can_precharge(self, bank_id: int, cycle: int) -> bool:
        return self.banks[bank_id].can_precharge(cycle)

    def can_read(self, bank_id: int, cycle: int) -> bool:
        return self.banks[bank_id].can_read(cycle)

    def can_write(self, bank_id: int, cycle: int) -> bool:
        return self.banks[bank_id].can_write(cycle)

    def can_refresh(self, rank: int, cycle: int) -> bool:
        """True if every bank in ``rank`` is precharged and ACT-ready."""
        # Early-exit scalar walk over the plane slots: the predicate almost
        # always fails on the first open or busy bank, which an ndarray
        # reduction cannot short-circuit on.
        plane = self.timing_plane
        open_row = plane.open_row_mv
        next_act = plane.next_act_mv
        for bank_id in self._rank_bank_ids[rank]:
            if open_row[bank_id] >= 0 or cycle < next_act[bank_id]:
                return False
        return True

    def can_rfm(self, bank_ids: Sequence[int], cycle: int) -> bool:
        """True if all target banks are precharged and ready for maintenance."""
        plane = self.timing_plane
        if len(bank_ids) == plane.num_banks:
            # All-bank RFM (back-off recovery): whole-plane reductions.
            return bool(plane.open_row.max() < 0 and plane.next_act.max() <= cycle)
        open_row = plane.open_row_mv
        next_act = plane.next_act_mv
        for bank_id in bank_ids:
            if open_row[bank_id] >= 0 or cycle < next_act[bank_id]:
                return False
        return True

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
        self.banks[bank_id].activate(row, cycle)
        self._record_rank_act(rank, cycle)
        self.command_counts["ACT"] += 1
        if self._act_hooks:
            for hook in self._act_hooks:
                hook(bank_id, row, cycle)

    def precharge(self, bank_id: int, cycle: int) -> int:
        """Issue a PRE to ``bank_id``.  Returns the closed row."""
        closed_row = self.banks[bank_id].precharge(cycle)
        self.command_counts["PRE"] += 1
        if self._pre_hooks:
            for hook in self._pre_hooks:
                hook(bank_id, closed_row, cycle)
        return closed_row

    def read(self, bank_id: int, cycle: int) -> int:
        """Issue a RD; return the data-ready cycle."""
        ready = self.banks[bank_id].read(cycle)
        self.command_counts["RD"] += 1
        return ready

    def write(self, bank_id: int, cycle: int) -> int:
        """Issue a WR; return the completion cycle."""
        done = self.banks[bank_id].write(cycle)
        self.command_counts["WR"] += 1
        return done

    def refresh(self, rank: int, cycle: int) -> None:
        """Issue an all-bank periodic REF to ``rank``."""
        bank_ids = self.banks_in_rank(rank)
        if not self.can_refresh(rank, cycle):
            raise TimingViolation(f"rank {rank}: REF at cycle {cycle} illegal")
        # can_refresh above proved every bank idle: the per-bank block()
        # calls collapse to one vectorized max over the rank slice.
        target = self.timing_plane.next_act[self._rank_slices[rank]]
        np.maximum(target, cycle + self.timing.tRFC, out=target)
        self.command_counts["REF"] += 1
        if self.mitigation is not None:
            self.mitigation.on_periodic_refresh(bank_ids, cycle)

    def rfm(self, bank_ids: Sequence[int], cycle: int) -> int:
        """Issue an RFM covering ``bank_ids``.

        The on-die mechanism (if any) performs its victim refreshes within
        the tRFM window.  Returns the number of victim rows refreshed.
        """
        if not self.can_rfm(bank_ids, cycle):
            raise TimingViolation(f"RFM at cycle {cycle} illegal for banks {bank_ids}")
        plane = self.timing_plane
        if len(bank_ids) == plane.num_banks:
            # All-bank RFM, all banks proven idle: one vectorized max.
            np.maximum(plane.next_act, cycle + self.timing.tRFM, out=plane.next_act)
        else:
            for bank_id in bank_ids:
                self.banks[bank_id].block(cycle, self.timing.tRFM)
        self.command_counts["RFM"] += 1
        refreshed = 0
        if self.mitigation is not None:
            refreshed = self.mitigation.on_rfm(bank_ids, cycle)
            self.internal_victim_rows += refreshed
        return refreshed

    def victim_refresh(self, bank_id: int, num_rows: int, cycle: int) -> int:
        """Serve a controller-side victim-row refresh (VRR).

        Returns the cycle at which the bank becomes available again.
        """
        done = self.banks[bank_id].victim_refresh(cycle, rows=num_rows)
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
        return self.banks[bank_id].open_row

    def total_activations(self) -> int:
        """Total ACT commands issued to the device."""
        return self.command_counts["ACT"]

    def command_count(self, mnemonic: str) -> int:
        """Command count for the given mnemonic (``"ACT"``, ``"RD"``, ...)."""
        return self.command_counts[mnemonic]
