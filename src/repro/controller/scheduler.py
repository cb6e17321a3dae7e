"""FR-FCFS + Cap memory request scheduler.

The paper's memory controller uses the First-Ready, First-Come-First-Served
policy with a *Cap on Column-Over-Row Reordering* of four (Table 2):
row-buffer hits are prioritised over older row-buffer conflicts, but at most
``cap`` consecutive hits may bypass an older conflicting request to the same
bank, which bounds the starvation that an open-row-friendly stream could
otherwise inflict (and that a memory performance attack exploits).

The streak that enforces the cap belongs to the currently *open row*: when a
row is closed (demand precharge, periodic refresh, RFM, back-off recovery)
the reordering budget of the bank resets -- the controller reports closures
via :meth:`FrFcfsCapScheduler.on_row_closed`.

The memory controller keeps its request queues bucketed per bank
(:class:`~repro.controller.controller.MemoryController`), so the scheduler
offers :meth:`choose_from_buckets`, which picks the same request FR-FCFS+Cap
would pick from a flat queue scan but only inspects per-bank bucket heads and
the open-row hits of open banks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.controller.request import MemoryRequest
from repro.dram.device import DramDevice


class FrFcfsCapScheduler:
    """FR-FCFS with a cap on column-over-row reordering."""

    def __init__(self, cap: int = 4) -> None:
        if cap <= 0:
            raise ValueError("cap must be positive")
        self.cap = cap
        #: Consecutive row hits scheduled over an older conflict, per bank.
        self._hit_streak: Dict[int, int] = {}

    def choose(
        self, queue: Sequence[MemoryRequest], device: DramDevice
    ) -> Optional[MemoryRequest]:
        """Choose the next request to service from a flat ``queue``.

        The choice only considers row-buffer state (first-ready); the caller
        remains responsible for checking command timing legality before
        issuing and for calling :meth:`on_scheduled` when a request is
        finally serviced.
        """
        if not queue:
            return None

        oldest: Optional[MemoryRequest] = None
        best_hit: Optional[MemoryRequest] = None
        for request in queue:
            if oldest is None or request.request_id < oldest.request_id:
                oldest = request
            if device.open_row(request.bank_id) == request.dram.row:
                if best_hit is None or request.request_id < best_hit.request_id:
                    best_hit = request

        return self._arbitrate(oldest, best_hit, queue)

    def choose_from_buckets(
        self,
        buckets: Dict[int, List[MemoryRequest]],
        open_rows: Sequence[int],
    ) -> Optional[MemoryRequest]:
        """Equivalent of :meth:`choose` over per-bank FIFO buckets.

        ``buckets`` maps a flat bank id to the bank's queued requests in
        arrival (= request_id) order; empty buckets must have been removed.
        ``open_rows`` is the device's per-bank open-row list
        (``-1`` = precharged), indexed by flat bank id.  Picks exactly the
        request a flat FR-FCFS+Cap scan would pick.
        """
        if not buckets:
            return None

        oldest: Optional[MemoryRequest] = None
        best_hit: Optional[MemoryRequest] = None
        for bank_id, bucket in buckets.items():
            head = bucket[0]
            if oldest is None or head.request_id < oldest.request_id:
                oldest = head
            open_row = open_rows[bank_id]
            if open_row < 0:
                continue
            for request in bucket:
                if request.dram.row == open_row:
                    if best_hit is None or request.request_id < best_hit.request_id:
                        best_hit = request
                    break  # bucket is FIFO: the first hit is the oldest hit
        return self._arbitrate_bucketed(oldest, best_hit, buckets)

    def _arbitrate(
        self,
        oldest: Optional[MemoryRequest],
        best_hit: Optional[MemoryRequest],
        queue: Sequence[MemoryRequest],
    ) -> Optional[MemoryRequest]:
        if best_hit is None:
            return oldest
        if best_hit is oldest:
            return best_hit
        # There is an older request; only let the hit bypass it if the hit's
        # bank has not exhausted its reordering cap *and* the older request
        # targets the same bank (otherwise there is no reordering conflict).
        bank = best_hit.bank_id
        older_conflict_same_bank = False
        for r in queue:
            if r.request_id < best_hit.request_id and r.bank_id == bank:
                older_conflict_same_bank = True
                break
        if older_conflict_same_bank and self._hit_streak.get(bank, 0) >= self.cap:
            return oldest
        return best_hit

    def _arbitrate_bucketed(
        self,
        oldest: Optional[MemoryRequest],
        best_hit: Optional[MemoryRequest],
        buckets: Dict[int, List[MemoryRequest]],
    ) -> Optional[MemoryRequest]:
        if best_hit is None:
            return oldest
        if best_hit is oldest:
            return best_hit
        bank = best_hit.bank_id
        # The bank's bucket is FIFO, so an older same-bank request exists
        # exactly when the bucket head is older than the hit.
        older_conflict_same_bank = (
            buckets[bank][0].request_id < best_hit.request_id
        )
        if older_conflict_same_bank and self._hit_streak.get(bank, 0) >= self.cap:
            return oldest
        return best_hit

    def hit_streak(self, bank_id: int) -> int:
        """Consecutive row hits most recently scheduled to ``bank_id``."""
        return self._hit_streak.get(bank_id, 0)

    def cap_reached(self, bank_id: int) -> bool:
        """True if the bank exhausted its column-over-row reordering budget."""
        return self.hit_streak(bank_id) >= self.cap

    def on_scheduled(self, request: MemoryRequest, was_row_hit: bool) -> None:
        """Update the per-bank streak after a request is serviced."""
        bank = request.bank_id
        if was_row_hit:
            self._hit_streak[bank] = self._hit_streak.get(bank, 0) + 1
        else:
            self._hit_streak[bank] = 0

    def on_row_closed(self, bank_id: int) -> None:
        """The bank's open row was closed (PRE / REF / RFM / recovery).

        The column-over-row reordering budget is a property of the open row:
        a streak accumulated against a row that no longer exists must not
        throttle the first hits to a freshly opened row.
        """
        self._hit_streak.pop(bank_id, None)
