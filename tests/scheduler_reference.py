"""Flat-queue reference of the controller's FR-FCFS+Cap demand rule.

``MemoryController._service_demand`` applies FR-FCFS with a cap on
column-over-row reordering in one pass over its per-bank buckets, and per
bank it looks at three requests only: the head, the oldest row hit and the
oldest row conflict.  This module states the same rule over a flat queue,
with no buckets and no per-bank shortcut, so that a differential test can
check the controller against it:

* :func:`fr_fcfs_cap_pick` is the FR-FCFS+Cap choice from row state alone:
  the oldest row hit, unless an older request of the hit's bank waits and the
  bank's hit streak has reached the cap, in which case the oldest request.
* :func:`first_ready_request` adds the first-ready rule: if the pick's next
  command cannot issue now, it rescans the whole queue in ``request_id``
  order and takes the first request whose next command can.

The pick is a plain function of the queue, the open rows, the streaks and
the cap; the first-ready rule also reads the device's bank and rank
releases.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.controller.request import MemoryRequest
from repro.dram.device import DramDevice


def fr_fcfs_cap_pick(
    queue: Sequence[MemoryRequest],
    open_rows: Sequence[int],
    streaks: Sequence[int],
    cap: int,
) -> Optional[MemoryRequest]:
    """The request FR-FCFS+Cap picks from ``queue``, or None if it is empty.

    ``open_rows`` and ``streaks`` are indexed by flat bank id (``-1`` is a
    precharged bank); ``streaks`` counts the consecutive row hits served
    to each bank's open row.
    """
    oldest: Optional[MemoryRequest] = None
    best_hit: Optional[MemoryRequest] = None
    for request in queue:
        if oldest is None or request.request_id < oldest.request_id:
            oldest = request
        if open_rows[request.bank_id] == request.dram.row:
            if best_hit is None or request.request_id < best_hit.request_id:
                best_hit = request
    if best_hit is None or best_hit is oldest:
        return oldest
    bank = best_hit.bank_id
    older_same_bank = False
    for request in queue:
        if request.bank_id == bank and request.request_id < best_hit.request_id:
            older_same_bank = True
            break
    if older_same_bank and streaks[bank] >= cap:
        return oldest
    return best_hit


def can_issue(
    request: MemoryRequest,
    queue: Sequence[MemoryRequest],
    cycle: int,
    device: DramDevice,
    streaks: Sequence[int],
    cap: int,
) -> bool:
    """True if ``request``'s next command can issue at ``cycle``.

    Reads the device's registers.  A row hit needs its bank's column
    release (``next_rd`` or ``next_wr``, after the request's type).  A row
    conflict needs the precharge release, and FR-FCFS holds it back while a
    hit to the open row is queued for the same bank, until the bank's
    streak reaches the cap.  A request to a precharged bank needs the
    bank's and its rank's ACT releases.  Refresh is left out: an urgent REF
    would also hold back the rank's ACTs.
    """
    bank = request.bank_id
    row = device.open_rows[bank]
    if row == request.dram.row:
        next_col = device.next_rd if request.is_read else device.next_wr
        return cycle >= next_col[bank]
    if row >= 0:
        if streaks[bank] < cap:
            for other in queue:
                if other.bank_id == bank and other.dram.row == row:
                    return False
        return cycle >= device.next_pre[bank]
    rank = bank // device.organization.banks_per_rank
    return cycle >= device.next_act[bank] and cycle >= device.rank_next_act[rank]


def first_ready_request(
    queue: Sequence[MemoryRequest],
    cycle: int,
    device: DramDevice,
    streaks: Sequence[int],
    cap: int,
) -> Optional[MemoryRequest]:
    """The request whose command issues at ``cycle``, or None.

    The FR-FCFS+Cap pick if its command can issue, else the first request
    of the whole queue, in ``request_id`` order, whose command can.
    """
    pick = fr_fcfs_cap_pick(queue, device.open_rows, streaks, cap)
    if pick is not None and can_issue(pick, queue, cycle, device, streaks, cap):
        return pick
    for request in sorted(queue, key=lambda request: request.request_id):
        if can_issue(request, queue, cycle, device, streaks, cap):
            return request
    return None
