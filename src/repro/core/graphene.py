"""Graphene: Misra-Gries frequent-item tracking in the memory controller.

Graphene (Park et al., MICRO 2020) keeps, for every bank, a small table of
(row address, counter) pairs managed with the Misra-Gries frequent-element
algorithm plus a *spillover counter*.  The table is provisioned so that any
row activated more than the mitigation threshold within a reset window is
guaranteed to be tracked.  When a tracked row's estimated count crosses a
multiple of the threshold, the victims of that row are preventively
refreshed.

Graphene provides deterministic protection, but its table must grow inversely
with ``N_RH`` and it is implemented with content-addressable memory in the
memory controller, which is why its storage cost explodes at low thresholds
(50.3x growth from ``N_RH`` = 1K to 20 in Fig. 11).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.mitigation import ControllerMitigation, PreventiveRefresh
from repro.dram.timing import BASE_NS

#: Activations one bank can receive within a table reset window: half a
#: refresh window of back-to-back activations (tREFW / 2 / tRC, Table 1 ns).
DEFAULT_RESET_WINDOW_ACTIVATIONS = int(BASE_NS["tREFW"] / 2 / BASE_NS["tRC"])


@dataclass(slots=True)
class GrapheneEntry:
    """One Misra-Gries table entry."""

    row: int
    count: int
    #: Count value at which the last preventive refresh was triggered.
    last_trigger: int = 0


class MisraGriesTable:
    """A Misra-Gries summary with a spillover counter (one per bank)."""

    def __init__(self, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        self.num_entries = num_entries
        self.entries: Dict[int, GrapheneEntry] = {}
        self.spillover = 0

    def observe(self, row: int) -> GrapheneEntry:
        """Record one activation of ``row`` and return its table entry.

        Implements the Graphene update rule: tracked rows increment their
        counter; untracked rows either claim an empty slot (starting from the
        spillover count) or increment the spillover counter and replace the
        minimum entry once the spillover catches up with it.
        """
        entry = self.entries.get(row)
        if entry is not None:
            entry.count += 1
            return entry
        if len(self.entries) < self.num_entries:
            entry = GrapheneEntry(row=row, count=self.spillover + 1,
                                  last_trigger=self.spillover)
            self.entries[row] = entry
            return entry
        self.spillover += 1
        min_row = min(self.entries, key=lambda r: self.entries[r].count)
        min_entry = self.entries[min_row]
        if self.spillover >= min_entry.count:
            # Swap: the new row inherits the spillover count; the evicted
            # row's count becomes the new spillover value.
            del self.entries[min_row]
            self.spillover, inherited = min_entry.count, self.spillover
            entry = GrapheneEntry(row=row, count=inherited + 1,
                                  last_trigger=inherited)
            self.entries[row] = entry
            return entry
        # The activation is absorbed by the spillover counter: the count
        # estimate of this row is the spillover value itself.
        return GrapheneEntry(row=row, count=self.spillover, last_trigger=self.spillover)

    def observe_triggered(self, row: int, trigger_threshold: int) -> Tuple[int, bool]:
        """Observe ``row``; report (count, whether a refresh must trigger).

        A trigger fires when the entry's count advanced ``trigger_threshold``
        past its last trigger point, which is then reset.
        """
        entry = self.observe(row)
        if entry.count - entry.last_trigger >= trigger_threshold:
            entry.last_trigger = entry.count
            return entry.count, True
        return entry.count, False

    def max_count(self) -> int:
        """Maximum tracked count (0 for an empty table)."""
        if not self.entries:
            return 0
        return max(entry.count for entry in self.entries.values())

    def reset(self) -> None:
        self.entries.clear()
        self.spillover = 0


def graphene_table_entries(nrh: int) -> int:
    """Number of Misra-Gries entries Graphene needs per bank.

    Graphene guarantees that any row activated ``threshold`` times within the
    reset window (:data:`DEFAULT_RESET_WINDOW_ACTIVATIONS`) is tracked as
    long as the table has at least ``window / threshold`` entries
    (Misra-Gries error bound).
    """
    threshold = graphene_trigger_threshold(nrh)
    return max(1, math.ceil(DEFAULT_RESET_WINDOW_ACTIVATIONS / threshold) + 1)


def graphene_trigger_threshold(nrh: int) -> int:
    """Activation-count granularity at which victims are refreshed."""
    return max(1, nrh // 2)


class Graphene(ControllerMitigation):
    """Graphene read-disturbance mitigation (per-bank Misra-Gries tables)."""

    name = "Graphene"

    def __init__(
        self,
        nrh: int,
        num_banks: int,
        table_entries: Optional[int] = None,
    ) -> None:
        """Create a Graphene instance.

        Args:
            nrh: RowHammer threshold.
            num_banks: number of banks (one table per bank).
            table_entries: override the table size (otherwise derived from
                ``nrh`` and the reset window, the provisioning the storage
                model also uses).
        """
        super().__init__(nrh)
        if num_banks <= 0:
            raise ValueError("num_banks must be positive")
        self.num_banks = num_banks
        self.trigger_threshold = graphene_trigger_threshold(nrh)
        if table_entries is None:
            table_entries = graphene_table_entries(nrh)
        self.table_entries = table_entries
        self.tables = [MisraGriesTable(table_entries) for _ in range(num_banks)]

    def on_activate(self, bank_id: int, row: int, cycle: int) -> None:
        self.stats.tracked_activations += 1
        _, triggered = self.tables[bank_id].observe_triggered(
            row, self.trigger_threshold
        )
        if triggered:
            self.queue_refresh(
                PreventiveRefresh(
                    bank_id=bank_id,
                    aggressor_row=row,
                    num_rows=self.victim_rows_per_aggressor,
                )
            )

    def on_refresh_window(self, cycle: int) -> None:
        for table in self.tables:
            table.reset()

    def storage_overhead_bits(self, num_banks: int, rows_per_bank: int) -> Dict[str, int]:
        """Graphene stores its tables in CAM inside the memory controller."""
        row_bits = max(1, math.ceil(math.log2(rows_per_bank)))
        count_bits = max(1, math.ceil(math.log2(max(2, self.trigger_threshold)))) + 1
        entry_bits = row_bits + count_bits
        entries = graphene_table_entries(self.nrh)
        return {"cam_bits": num_banks * entries * entry_bits}
