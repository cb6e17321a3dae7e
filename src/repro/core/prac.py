"""PRAC: Per Row Activation Counting (JESD79-5c, April 2024).

PRAC is the industry's on-DRAM-die read-disturbance mitigation framework:

* every DRAM row has an activation counter, incremented while the row is
  being *closed* (which inflates tRP / tRC -- Table 1 of the paper, modelled
  by the PRAC timing preset);
* when a row's counter reaches the back-off threshold ``NBO``, the device
  asserts the ``alert_n`` back-off signal;
* the memory controller may keep serving requests for a *window of normal
  traffic* (tABOACT), then must issue ``NRef`` back-to-back RFM commands (the
  *recovery period*);
* after the recovery period the device cannot re-assert the back-off until it
  receives ``NDelay`` activate commands (the *delay period*).

The fixed number of RFMs per back-off plus the delay period are exactly the
weaknesses (L2 / L3 in the paper's Fig. 6) that make PRAC vulnerable to the
wave attack and force conservative (small ``NBO``) configurations.

This module also implements the Aggressor Tracking Table (ATT) the paper
assumes: a small per-bank table that tracks the rows with the highest
activation counts so the device knows which victims to refresh during an RFM.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.analysis.security import att_required_entries, secure_prac_backoff_threshold
from repro.core.counters import AggressorTrackingTable, PerRowCounters
from repro.core.mitigation import OnDieMitigation


class PRAC(OnDieMitigation):
    """PRAC-N: per-row activation counting with the DDR5 back-off protocol."""

    requires_prac_timings = True

    #: PRAC reads, modifies and writes the in-row counter on every precharge,
    #: which costs roughly the same additional array energy per row access as
    #: Chronus' counter-subarray update.
    act_energy_multiplier = 1.1907

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        nref: int = 4,
        nbo: Optional[int] = None,
    ) -> None:
        """Create a PRAC-N instance.

        The delay period is ``nref`` activations (JESD79-5c ties ``NDelay``
        to ``NRef``), the Aggressor Tracking Table holds the secure minimum
        of ``Anormal + 1`` entries, and the device transparently refreshes
        the victims of one tracked aggressor per bank every other periodic
        REF (§5).

        Args:
            nrh: RowHammer threshold the device must defend against.
            num_banks: number of banks in the channel.
            nref: RFM commands issued per back-off (1, 2 or 4).
            nbo: back-off threshold (absolute activation count).  If ``None``
                the largest threshold that is secure against the wave attack
                (per the §5 analysis) is used; if no threshold is secure at
                ``nrh``, the most aggressive one (``NBO = 1``) is used and
                :attr:`is_secure` is False.
        """
        super().__init__(nrh)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        if nref <= 0:
            raise ValueError("nref must be positive")
        self.num_banks = num_banks
        self.nref = nref

        if nbo is None:
            try:
                nbo = secure_prac_backoff_threshold(nrh, nref)
            except ValueError:
                nbo = 1
                self.is_secure = False
        self.nbo = nbo

        self.att_entries = att_required_entries(prac_timings=True)
        self.name = f"PRAC-{nref}"
        self.counters = PerRowCounters(num_banks)
        self.att: List[AggressorTrackingTable] = [
            AggressorTrackingTable(self.att_entries) for _ in range(num_banks)
        ]

        # Back-off protocol state.
        self._backoff = False
        self._rfms_in_recovery = 0
        self._delay_acts_remaining = 0
        self._borrow_toggle = False

    # ------------------------------------------------------------------ #
    # Observation hooks
    # ------------------------------------------------------------------ #
    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
        if self._delay_acts_remaining > 0:
            self._delay_acts_remaining -= 1
            if self._delay_acts_remaining == 0:
                self._maybe_reassert()

    def on_precharge(self, bank_id: int, row: int, cycle: int) -> None:
        count = self.counters.increment(bank_id, row)
        self.att[bank_id].update(row, count)
        if count >= self.nbo:
            self._assert_backoff()

    def on_periodic_refresh(self, bank_ids: List[int], cycle: int) -> None:
        self._borrow_toggle = not self._borrow_toggle
        if not self._borrow_toggle:
            return
        for bank_id in bank_ids:
            entry = self.att[bank_id].max_entry()
            if entry is None or entry.count == 0:
                continue
            self.counters.reset_row(bank_id, entry.row)
            self.att[bank_id].invalidate(entry.row)
            self.stats.borrowed_refreshes += self.victim_rows_per_aggressor
            self.notify_victims_refreshed(
                bank_id, entry.row, self.victim_rows_per_aggressor, cycle
            )

    def on_refresh_window(self, cycle: int) -> None:
        self.counters.reset_all()
        for att in self.att:
            att.clear()

    # ------------------------------------------------------------------ #
    # Back-off protocol
    # ------------------------------------------------------------------ #
    def _assert_backoff(self) -> None:
        if self._backoff or self._delay_acts_remaining > 0:
            return
        self._backoff = True
        self._rfms_in_recovery = 0
        self.stats.backoffs += 1

    def _maybe_reassert(self) -> None:
        """Re-assert the back-off if a tracked row still exceeds ``NBO``."""
        for bank_id in range(self.num_banks):
            entry = self.att[bank_id].max_entry()
            if entry is not None and entry.count >= self.nbo:
                self._assert_backoff()
                return

    def backoff_asserted(self) -> bool:
        return self._backoff

    def wants_more_rfm(self) -> bool:
        return self._backoff and self._rfms_in_recovery < self.nref

    def on_rfm(self, bank_ids: List[int], cycle: int) -> int:
        """Serve one RFM of the recovery period.

        Refreshes the victims of the maximum-count ATT entry in every covered
        bank, then advances the recovery state; after ``NRef`` RFMs the
        back-off is de-asserted and the delay period begins.
        """
        refreshed_rows = 0
        for bank_id in bank_ids:
            entry = self.att[bank_id].max_entry()
            if entry is None:
                continue
            self.counters.reset_row(bank_id, entry.row)
            self.att[bank_id].invalidate(entry.row)
            refreshed_rows += self.victim_rows_per_aggressor
            self.notify_victims_refreshed(
                bank_id, entry.row, self.victim_rows_per_aggressor, cycle
            )
        self.stats.rfm_commands += 1
        self.stats.preventive_refresh_rows += refreshed_rows
        if self._backoff:
            self._rfms_in_recovery += 1
            if self._rfms_in_recovery >= self.nref:
                self._backoff = False
                self._rfms_in_recovery = 0
                self._delay_acts_remaining = self.nref
        return refreshed_rows

    def activations_until_next_backoff(self) -> Optional[int]:
        return self._delay_acts_remaining if self._delay_acts_remaining > 0 else None

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """PRAC keeps one counter per row in DRAM (width scales with N_RH)."""
        counter_bits = counter_width_bits(self.nrh)
        return {"dram_bits": num_banks * rows_per_bank * counter_bits}


def counter_width_bits(nrh: int) -> int:
    """Activation-counter width needed to count up to ``N_RH`` safely.

    One extra bit is kept beyond ``ceil(log2(N_RH))`` so the counter cannot
    silently wrap between preventive refreshes (matching the storage figures:
    11 bits at ``N_RH`` = 1K, 6 bits at ``N_RH`` = 20).
    """
    if nrh <= 0:
        raise ValueError("nrh must be positive")
    return max(1, math.ceil(math.log2(nrh))) + 1
