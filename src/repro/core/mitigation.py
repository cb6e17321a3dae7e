"""Mitigation mechanism interfaces.

Every read-disturbance mitigation mechanism in this repository implements the
:class:`MitigationMechanism` interface.  Mechanisms come in two flavours,
mirroring the taxonomy in the paper (Fig. 6):

* **Controller-side** mechanisms (:class:`ControllerMitigation`) live in the
  memory controller.  They observe row activations, decide when victim rows
  must be refreshed, and queue *preventive refreshes* that the controller
  serves by blocking the target bank (Graphene, Hydra, PARA) or by issuing an
  RFM command (PRFM).

* **On-DRAM-die** mechanisms (:class:`OnDieMitigation`) live inside the DRAM
  device.  They maintain per-row activation counters, assert the ``alert_n``
  back-off signal when a counter reaches the back-off threshold, and perform
  the victim refreshes themselves during RFM commands (PRAC, Chronus).

The memory controller and DRAM device only ever talk to these interfaces,
which keeps the simulator mechanism-agnostic, exactly like Ramulator 2.0's
plugin architecture that the paper's artifact builds on.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

#: Listener signature for victim-refresh events:
#: ``(bank_id, aggressor_row, num_rows, cycle)``.  ``aggressor_row`` is None
#: when the DRAM chip chooses the aggressor itself (e.g. a plain PRFM RFM).
MitigationListener = Callable[[int, Optional[int], int, int], None]


#: Number of physically adjacent victim rows on each side of an aggressor
#: (the paper assumes a blast radius of 2, i.e. four victim rows total).
DEFAULT_BLAST_RADIUS = 2


@dataclass(slots=True)
class PreventiveRefresh:
    """A queued request to refresh victim rows of an aggressor.

    Attributes:
        bank_id: flat bank index containing the aggressor row.
        aggressor_row: the row whose neighbours must be refreshed.
        num_rows: how many victim rows must be refreshed
            (``victim_rows_per_aggressor`` unless the mechanism refreshes a
            single neighbour, e.g. PARA).
    """

    bank_id: int
    aggressor_row: int
    num_rows: int


@dataclass(slots=True)
class MitigationStats:
    """Counters shared by all mechanisms (consumed by the energy model)."""

    preventive_refresh_rows: int = 0
    rfm_commands: int = 0
    backoffs: int = 0
    borrowed_refreshes: int = 0
    tracked_activations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "preventive_refresh_rows": self.preventive_refresh_rows,
            "rfm_commands": self.rfm_commands,
            "backoffs": self.backoffs,
            "borrowed_refreshes": self.borrowed_refreshes,
            "tracked_activations": self.tracked_activations,
        }


class MitigationMechanism(abc.ABC):
    """Common interface for all read-disturbance mitigation mechanisms."""

    #: Human-readable mechanism name (e.g. ``"PRAC-4"``).
    name: str = "base"

    #: If True, the mechanism requires the PRAC timing parameters (Table 1)
    #: because counters are updated while the row closes.
    requires_prac_timings: bool = False

    #: False when no configuration of the mechanism is secure against the
    #: wave attack at its ``nrh`` and it fell back to its most aggressive one
    #: (§5, §8).
    is_secure: bool = True

    #: Multiplier applied to the energy of a row access (ACT+PRE pair) to
    #: account for in-DRAM counter maintenance (e.g. Chronus' counter
    #: subarray adds 19.07 % per the paper's SPICE evaluation).
    act_energy_multiplier: float = 1.0

    #: Victim rows refreshed when an aggressor is mitigated.
    victim_rows_per_aggressor: int = 2 * DEFAULT_BLAST_RADIUS

    def __init__(self, nrh: int) -> None:
        if nrh <= 0:
            raise ValueError(f"N_RH must be positive, got {nrh}")
        self.nrh = nrh
        self.stats = MitigationStats()
        #: External observers of victim-refresh events (e.g. the red-team
        #: :class:`~repro.attacks.oracle.DisturbanceOracle`).
        self._mitigation_listeners: List[MitigationListener] = []

    # ------------------------------------------------------------------ #
    # Observation hooks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        """Called when a row is activated."""

    def on_precharge(self, bank_id: int, row: int, cycle: int) -> None:
        """Called when a row is precharged (closed)."""

    def on_periodic_refresh(self, bank_ids: List[int], cycle: int) -> None:
        """Called when a periodic REF is issued to the given banks.

        On-die mechanisms use this hook to *borrow* time from the periodic
        refresh and transparently refresh the victims of the most activated
        recently-accessed row (§5 and §7.1 of the paper).
        """

    def on_refresh_window(self, cycle: int) -> None:
        """Called once per refresh window (tREFW); resets activation state."""

    # ------------------------------------------------------------------ #
    # Victim-refresh observation
    # ------------------------------------------------------------------ #
    def add_mitigation_listener(self, listener: MitigationListener) -> None:
        """Subscribe to victim-refresh events of this mechanism."""
        self._mitigation_listeners.append(listener)

    def notify_victims_refreshed(
        self,
        bank_id: int,
        aggressor_row: Optional[int],
        num_rows: int,
        cycle: int,
    ) -> None:
        """Tell listeners the victims of an aggressor were just refreshed.

        ``aggressor_row`` is ``None`` when the device chooses the aggressor
        internally (the listener may assume the defence's best choice).
        """
        for listener in self._mitigation_listeners:
            listener(bank_id, aggressor_row, num_rows, cycle)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """Return storage overhead in bits, split by location.

        Returns a dict with ``"dram_bits"``, ``"sram_bits"`` and ``"cam_bits"``
        keys (missing keys mean zero).  Used by the Fig. 11 / Fig. 13
        experiments.
        """
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r}, nrh={self.nrh})"


class ControllerMitigation(MitigationMechanism):
    """A mechanism that lives in the memory controller.

    Controller-side mechanisms queue :class:`PreventiveRefresh` actions; the
    memory controller drains the queue by blocking the target bank for the
    duration of the victim refreshes.  They may also request RFM commands
    (PRFM) via :meth:`rfm_pending_banks`.
    """

    def __init__(self, nrh: int) -> None:
        super().__init__(nrh)
        self._pending: Dict[int, List[PreventiveRefresh]] = {}

    # -- preventive refresh queue --------------------------------------- #
    def queue_refresh(self, refresh: PreventiveRefresh) -> None:
        """Queue a preventive refresh for the controller to serve."""
        self._pending.setdefault(refresh.bank_id, []).append(refresh)
        self.stats.preventive_refresh_rows += refresh.num_rows

    def pending_refresh(self, bank_id: int) -> Optional[PreventiveRefresh]:
        """Peek at the oldest pending preventive refresh for ``bank_id``."""
        queue = self._pending.get(bank_id)
        return queue[0] if queue else None

    def pop_refresh(self, bank_id: int, cycle: int = 0) -> Optional[PreventiveRefresh]:
        """Remove and return the oldest pending refresh for ``bank_id``.

        The caller is about to serve the refresh, so listeners are notified
        that the aggressor's victims are (being) refreshed.
        """
        queue = self._pending.get(bank_id)
        if not queue:
            return None
        refresh = queue.pop(0)
        if not queue:
            # Prune drained buckets so has_pending_refreshes stays O(1) and
            # banks_with_pending_refreshes never walks dead keys.
            del self._pending[bank_id]
        self.notify_victims_refreshed(
            refresh.bank_id, refresh.aggressor_row, refresh.num_rows, cycle
        )
        return refresh

    def has_pending_refreshes(self) -> bool:
        """True if any bank has a queued preventive refresh (hot-path guard)."""
        return bool(self._pending)

    def banks_with_pending_refreshes(self) -> List[int]:
        """Return the bank ids that currently have queued refreshes.

        Drained buckets are pruned eagerly (see :meth:`pop_refresh`), so the
        key set is exactly the pending set.  The memory controller's hot
        paths iterate ``_pending`` directly instead of paying this list
        allocation per tick; the attribute is part of the hot-path contract.
        """
        return list(self._pending)

    def total_pending_rows(self) -> int:
        """Total number of victim rows waiting to be refreshed."""
        return sum(r.num_rows for queue in self._pending.values() for r in queue)

    # -- RFM interface (used by PRFM) ------------------------------------ #
    def rfm_pending_banks(self) -> Sequence[int]:
        """Banks that currently need an RFM, in ascending bank order.

        The returned sequence may be live internal state -- callers must
        treat it as read-only.
        """
        return ()

    def acknowledge_rfm(self, bank_id: int, cycle: int) -> None:
        """Called after the controller issues the RFM requested for a bank."""


class OnDieMitigation(MitigationMechanism):
    """A mechanism implemented inside the DRAM device.

    On-die mechanisms communicate with the memory controller exclusively
    through the ``alert_n`` back-off signal and RFM commands, as specified by
    PRAC in JESD79-5c.
    """

    @abc.abstractmethod
    def backoff_asserted(self) -> bool:
        """Return True while the device requests preventive refreshes."""

    @abc.abstractmethod
    def on_rfm(self, bank_ids: List[int], cycle: int) -> int:
        """Serve an RFM command.

        The device refreshes the victims of the most-activated tracked row in
        each of ``bank_ids`` and updates the back-off state.  Returns the
        total number of victim rows refreshed (for the energy model).
        """

    def wants_more_rfm(self) -> bool:
        """Return True if the recovery period should issue another RFM.

        PRAC issues a fixed number of RFMs per back-off; Chronus keeps the
        back-off asserted until every row above the threshold is refreshed.
        """
        return self.backoff_asserted()

    def activations_until_next_backoff(self) -> Optional[int]:
        """For delay-period mechanisms: ACTs remaining before re-assertion."""
        return None


class NoMitigation(ControllerMitigation):
    """Baseline: no read-disturbance mitigation at all."""

    name = "None"

    def __init__(self, nrh: int = 10**9) -> None:
        super().__init__(nrh)

    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
