"""PRFM: Periodic Refresh Management (pre-2024 DDR5, JESD79-5).

Before the April-2024 PRAC update, the DDR5 specification advised the memory
controller to issue an RFM command whenever the number of activations to a
bank (or logical memory region) exceeds a threshold, ``RFMth``.  The DRAM
chip uses the RFM window to refresh the victims of an aggressor row of its
choosing.

PRFM is a *controller-side* policy: the controller keeps one activation
counter per bank (this is the entirety of PRFM's storage cost -- the smallest
of all evaluated mechanisms, Fig. 11) and requests an RFM when the counter
reaches ``RFMth``.  Because PRFM performs preventive refreshes periodically
regardless of which rows were activated, the wave attack forces very small
``RFMth`` values at low ``N_RH`` (Fig. 3a), which makes PRFM's overhead grow
quickly as ``N_RH`` decreases.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional

from repro.analysis.security import secure_prfm_threshold
from repro.core.mitigation import ControllerMitigation


class PRFM(ControllerMitigation):
    """Periodic RFM issued every ``RFMth`` activations per bank."""

    name = "PRFM"

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        rfm_threshold: Optional[int] = None,
    ) -> None:
        """Create a PRFM policy.

        Args:
            nrh: RowHammer threshold.
            num_banks: number of banks tracked (one counter each).
            rfm_threshold: activations per bank between RFM commands.  When
                ``None``, the largest wave-attack-secure threshold is chosen
                from the §5 analysis; if no threshold is secure at ``nrh``,
                the most aggressive candidate (``RFMth = 2``) is used and
                :attr:`is_secure` is False.
        """
        super().__init__(nrh)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        if rfm_threshold is None:
            try:
                rfm_threshold = secure_prfm_threshold(nrh)
            except ValueError:
                rfm_threshold = 2
                self.is_secure = False
        if rfm_threshold <= 0:
            raise ValueError("rfm_threshold must be positive")
        self.rfm_threshold = rfm_threshold
        self._bank_counters: List[int] = [0] * num_banks
        # The banks that owe an RFM, each at most once, sorted so the
        # controller serves them in ascending bank order.
        self._rfm_pending_banks: List[int] = []

    # ------------------------------------------------------------------ #
    # Observation hooks
    # ------------------------------------------------------------------ #
    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
        self._bank_counters[bank_id] += 1
        if (
            self._bank_counters[bank_id] >= self.rfm_threshold
            and bank_id not in self._rfm_pending_banks
        ):
            bisect.insort(self._rfm_pending_banks, bank_id)

    # ------------------------------------------------------------------ #
    # RFM interface
    # ------------------------------------------------------------------ #
    def rfm_pending_banks(self) -> List[int]:
        # Live internal state (read-only contract): the controller consults
        # this every tick while RFMs are owed, so no copy is made.
        return self._rfm_pending_banks

    def acknowledge_rfm(
        self, bank_id: int, cycle: int, on_die_refreshed: Optional[int] = None
    ) -> None:
        """Reset the bank counter after the controller issued the RFM.

        Args:
            bank_id: bank the RFM covered.
            cycle: issue cycle.
            on_die_refreshed: victim rows an *on-die* mechanism refreshed
                during this RFM, or ``None`` when the device hosts no on-die
                mechanism at all.  Only in the ``None`` case does the plain
                DRAM chip pick an aggressor itself: PRFM then counts the RFM
                and its refresh, and tells listeners about it with an
                unknown (``None``) aggressor row.  In composite
                configurations (PRAC+PRFM) the on-die mechanism serves the
                RFM and counts and reports its own refreshes -- including
                refreshing nothing -- so PRFM credits neither the command
                nor a phantom refresh.
        """
        if bank_id in self._rfm_pending_banks:
            self._rfm_pending_banks.remove(bank_id)
        self._bank_counters[bank_id] = 0
        if on_die_refreshed is None:
            self.stats.rfm_commands += 1
            self.stats.preventive_refresh_rows += self.victim_rows_per_aggressor
            self.notify_victims_refreshed(
                bank_id, None, self.victim_rows_per_aggressor, cycle
            )

    def bank_counter(self, bank_id: int) -> int:
        """Current activation count of ``bank_id`` since the last RFM."""
        return self._bank_counters[bank_id]

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """PRFM keeps a single activation counter per bank in the controller."""
        counter_bits = max(1, math.ceil(math.log2(self.nrh))) + 1
        return {"sram_bits": num_banks * counter_bits}
