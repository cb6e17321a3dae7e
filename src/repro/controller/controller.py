"""The memory controller.

The controller owns the DRAM device, the demand request queues, the FR-FCFS
+ Cap scheduling policy, periodic refresh, and all read-disturbance
management on the controller side:

* it hosts controller-side mitigation mechanisms (PRFM / Graphene / Hydra /
  PARA / ABACuS) and serves their preventive refreshes and RFM requests, and
* it implements the PRAC back-off protocol: after observing the ``alert_n``
  signal it may keep serving requests for the window of normal traffic
  (tABOACT), then it precharges all banks and issues RFM commands -- a fixed
  number for PRAC (recovery period), or for as long as the device keeps the
  back-off asserted for Chronus.

The controller issues at most one DRAM command per cycle (single command
bus).  ``tick`` returns whether a command was issued plus a hint of the next
cycle at which the controller could do useful work, which the system
simulator uses to skip cycles -- after an issued command as well as after an
idle tick.

Hot-path design (the event-horizon engine):

* Demand queues are **bucketed per bank** and the buckets are maintained
  incrementally on enqueue/dequeue.  One pass over the buckets of the
  active queue yields both the FR-FCFS+Cap pick and the first-ready
  candidates it falls back to, and the wake-hint computation walks them
  once more per recompute; nothing rescans the flat queue per candidate.
* Readiness is read straight from the device's per-bank and per-rank timing
  registers (plain lists), hoisted once at construction.
* The wake hint ``tick`` returns (:meth:`_next_event_hint`) is *precise*: it
  covers every event source that can unblock the controller -- per-bank
  command readiness, rank-level tRRD/tFAW release, the earliest
  periodic-refresh due cycle (a time skip must never jump past a tREFI
  boundary), the back-off recovery deadline, pending preventive refreshes
  and pending RFMs, and in-flight read completions.  The demand part is
  exact: it covers only the queue the next demand service will serve, and a
  bank only at the release of a command FR-FCFS+Cap can issue there.  A hint
  that fires early merely costs a wasted wake; a hint that fires late would
  silently change simulated behaviour, which the strict-tick determinism
  harness guards against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.controller.address_mapping import AddressMapping
from repro.controller.request import MemoryRequest, RequestType
from repro.core.mitigation import ControllerMitigation
from repro.dram.device import DramDevice
from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import FAR_FUTURE

#: Arrival-order sort key of the first-ready candidates, hoisted so the
#: per-issue hot path does not build a closure per call.
_BY_REQUEST_ID = operator.attrgetter("request_id")


@dataclass(slots=True)
class ControllerStats:
    """Aggregate statistics exported after a simulation."""

    reads_served: int = 0
    writes_served: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    refreshes: int = 0
    rfms: int = 0
    backoffs_observed: int = 0
    preventive_refresh_rows: int = 0
    total_read_latency: int = 0

    def average_read_latency(self) -> float:
        if self.reads_served == 0:
            return 0.0
        return self.total_read_latency / self.reads_served


class MemoryController:
    """A single-channel DDR5 memory controller.

    Multi-channel systems instantiate one controller per channel behind a
    :class:`~repro.controller.router.ChannelRouter`; each controller owns its
    own device, queues, FR-FCFS+Cap state, refresh state and back-off
    protocol.

    Demand is scheduled with FR-FCFS and a cap on column-over-row reordering
    (``scheduler_cap``, 4 in Table 2 of the paper): row hits go before older
    row conflicts, but at most ``scheduler_cap`` consecutive hits may bypass
    an older conflict of the same bank.  That bounds the starvation an
    open-row-friendly stream (the performance attack of §11) can inflict.
    """

    def __init__(
        self,
        device: DramDevice,
        mapping: AddressMapping,
        mechanism: Optional[ControllerMitigation] = None,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        scheduler_cap: int = 4,
        write_drain_high: int = 48,
        write_drain_low: int = 16,
    ) -> None:
        self.device = device
        self.mapping = mapping
        self.mechanism = mechanism
        self.timing = device.timing
        self.organization = device.organization
        self.read_queue_size = read_queue_size
        self.write_queue_size = write_queue_size
        if scheduler_cap <= 0:
            raise ValueError("scheduler_cap must be positive")
        self.scheduler_cap = scheduler_cap
        self.refresh = RefreshScheduler(self.organization.ranks, self.timing)
        if not 0 <= write_drain_low < write_drain_high:
            # The hysteresis then only ever drains a non-empty write queue,
            # so the drain flag alone names the queue being served.
            raise ValueError(
                "write drain thresholds need 0 <= write_drain_low < write_drain_high"
            )
        self.write_drain_high = write_drain_high
        self.write_drain_low = write_drain_low
        # The on-die mechanism, cached: the back-off probe runs every tick
        # and must not chase device attributes for mechanisms that live on
        # the controller side (where it is None).
        self._on_die = device.mitigation

        # The device's bank and rank timing registers, hoisted onto the
        # controller: every readiness check indexes these once per register
        # access, and caching them here turns each ``device.next_*``
        # attribute chain into a single hop.  Safe because the device
        # mutates the lists in place and never rebinds them.
        self._open_rows = device.open_rows
        self._next_act = device.next_act
        self._next_pre = device.next_pre
        self._next_rd = device.next_rd
        self._next_wr = device.next_wr
        self._rank_next_act = device.rank_next_act
        # Consecutive row hits served per bank, the streak the cap bounds.
        # It belongs to the open row: every row closure (``_precharge``)
        # and every column command that was no row hit zeroes it.
        self._hit_streak: List[int] = [0] * self.organization.total_banks

        # The demand queues live *only* as per-bank FIFO buckets, maintained
        # incrementally on enqueue/dequeue (empty buckets are pruned); the
        # flat per-type occupancy is a pair of counters.
        self._read_buckets: Dict[int, List[MemoryRequest]] = {}
        self._write_buckets: Dict[int, List[MemoryRequest]] = {}
        self._read_count = 0
        self._write_count = 0
        # Queued demand requests (read + write) per rank, for O(1)
        # refresh-postponing decisions.
        self._rank_demand: List[int] = [0] * self.organization.ranks
        self._banks_per_rank = self.organization.banks_per_rank
        self._all_banks: List[int] = list(range(self.organization.total_banks))
        self._inflight_reads: List[MemoryRequest] = []
        # Completed-but-undrained requests.  The ChannelRouter reads this
        # attribute directly (a truthiness check per channel per tick) to
        # skip the drain call when empty -- treat the name as part of the
        # hot-path contract.
        self._completed: List[MemoryRequest] = []
        self._draining_writes = False

        # Back-off protocol state.
        self._rfm_due_cycle: Optional[int] = None
        self._in_recovery = False

        # The demand wake-hint cache (see docs/ARCHITECTURE.md, "Wake-hint
        # cache").  It only ever errs early -- a stale value costs a wasted
        # no-op wake, never a missed event -- and a cached value at or below
        # the current cycle is stale by definition and recomputed.
        #
        # ``_demand_hint`` is the earliest strictly-future cycle at which a
        # bank of the queue the next ``_service_demand`` serves can issue
        # (``_demand_ready_cycle``); ``_demand_drains`` records which queue
        # that was.  Every issued command drops it, and the hint after the
        # issue recomputes it; ``enqueue`` folds the new request's bank in.
        # The queue can only flip when a count changes: on an issue, which
        # recomputes the hint, or on an enqueue, which marks the channel
        # dirty -- ``_service_demand`` then drops a hint computed for the
        # other queue.  While the hint lies in the future, ``_service_demand``
        # skips its pass outright -- unless ``_demand_ready_now`` is set: a
        # bank that could already issue at the last recompute is excluded
        # from the strictly-future minimum.  After an issue that means the
        # command bus was taken, so the next cycle is a wake; after a failed
        # tick it only means an urgent refresh blocks the bank's ACT.
        self._demand_hint: Optional[int] = None
        self._demand_drains = False
        self._demand_ready_now = True

        self.stats = ControllerStats()

    # ------------------------------------------------------------------ #
    # Interface used by the cores / system simulator
    # ------------------------------------------------------------------ #
    def can_accept(self, request_type: RequestType) -> bool:
        """True if the corresponding queue has space."""
        if request_type is RequestType.READ:
            return self._read_count < self.read_queue_size
        return self._write_count < self.write_queue_size

    def enqueue(self, request: MemoryRequest) -> bool:
        """Decode and enqueue a demand request.  Returns False if full.

        Requests already decoded upstream (the multi-channel
        :class:`~repro.controller.router.ChannelRouter` decodes once to pick
        the channel) are enqueued as-is.
        """
        if not self.can_accept(request.request_type):
            return False
        if request.dram is None:
            request.dram = self.mapping.decode(request.address)
            request.bank_id = request.dram.flat_bank(self.organization)
        if request.is_read:
            self._read_count += 1
            buckets = self._read_buckets
        else:
            self._write_count += 1
            buckets = self._write_buckets
        bucket = buckets.get(request.bank_id)
        if bucket is None:
            buckets[request.bank_id] = [request]
        else:
            bucket.append(request)
        self._rank_demand[request.bank_id // self._banks_per_rank] += 1
        # Incremental maintenance: only the enqueued bank gained a new
        # readiness event, so fold it into the cached minimum.  A value at or
        # below the current cycle makes the hint stale, which forces the
        # usual recompute at the next idle wake.
        hint = self._demand_hint
        if hint is not None:
            ready = self._bank_demand_ready(request.bank_id, request.is_read)
            if ready < hint:
                self._demand_hint = ready
        return True

    def _dequeue(self, request: MemoryRequest, is_read: bool) -> None:
        """Remove a serviced request from the bucket structures."""
        if is_read:
            self._read_count -= 1
            buckets = self._read_buckets
        else:
            self._write_count -= 1
            buckets = self._write_buckets
        bucket = buckets[request.bank_id]
        bucket.remove(request)
        if not bucket:
            del buckets[request.bank_id]
        self._rank_demand[request.bank_id // self._banks_per_rank] -= 1

    def drain_completed(self) -> List[MemoryRequest]:
        """Return (and clear) the requests completed since the last call.

        When nothing completed, the (empty) live list is returned without
        detaching it -- callers only iterate the result before their next
        drain, so the aliasing is unobservable and the per-call allocation
        disappears from the idle path.
        """
        completed = self._completed
        if not completed:
            return completed
        self._completed = []
        return completed

    def pending_requests(self) -> int:
        """Demand requests still queued or in flight."""
        return self._read_count + self._write_count + len(self._inflight_reads)

    # ------------------------------------------------------------------ #
    # Main per-cycle entry point
    # ------------------------------------------------------------------ #
    def tick(self, cycle: int) -> Tuple[bool, int]:
        """Attempt to issue one DRAM command at ``cycle``.

        Returns ``(issued, next_hint)`` where ``next_hint`` is the earliest
        cycle at which calling ``tick`` again may be useful, whether or not
        a command issued (see :meth:`_next_event_hint`).
        """
        # Prologue with the O(1) guards inlined (this runs every busy
        # cycle): refresh accrual off-boundary, read retirement with nothing
        # due, and the back-off probe without an on-die mechanism are all
        # no-ops that must not cost a call each.
        refresh = self.refresh
        if cycle >= refresh._next_accrual:
            refresh.tick(cycle)
        reads = self._inflight_reads
        if reads and reads[0].completion_cycle <= cycle:
            self._retire_inflight(cycle)
        if self._rfm_due_cycle is None and not self._in_recovery:
            on_die = self._on_die
            if on_die is not None and on_die.backoff_asserted():
                self.stats.backoffs_observed += 1
                self._rfm_due_cycle = (
                    cycle + self.timing.tBackOffLatency + self.timing.tABOACT
                )

        issued = self._service_backoff(cycle)
        if not issued and not self._backoff_blocks_traffic(cycle):
            # Guards inlined: each service stage is only entered when its
            # work queue is non-empty (this tick runs every busy cycle).
            mechanism = self.mechanism
            issued = (
                bool(self.refresh.ranks_needing_refresh())
                and self._service_refresh(cycle)
            )
            if not issued and mechanism is not None:
                issued = self._service_prfm(cycle) or (
                    mechanism.has_pending_refreshes()
                    and self._service_preventive(cycle)
                )
            if not issued:
                issued = self._service_demand(cycle)
        if issued:
            # Any command changes bank/rank readiness: drop the cached demand
            # hint, which the hint below recomputes.
            self._demand_hint = None
            return True, self._next_event_hint(cycle, True)
        return False, self._next_event_hint(cycle)

    def _backoff_blocks_traffic(self, cycle: int) -> bool:
        """True once the window of normal traffic after a back-off has ended.

        While the recovery period is pending or in progress the controller
        must not issue demand commands: new activations would both delay the
        mandated RFM commands and re-open banks that the recovery needs
        precharged.
        """
        if self._in_recovery:
            return True
        return self._rfm_due_cycle is not None and cycle >= self._rfm_due_cycle

    # ------------------------------------------------------------------ #
    # Back-off (alert_n) handling
    # ------------------------------------------------------------------ #
    def _service_backoff(self, cycle: int) -> bool:
        """Handle the recovery period of the back-off protocol."""
        if not self._in_recovery:
            if self._rfm_due_cycle is None or cycle < self._rfm_due_cycle:
                return False
            self._in_recovery = True

        open_row = self._open_rows
        all_banks = self._all_banks
        # All banks must be precharged before an all-bank RFM can be issued;
        # stop at the first open bank in id order.
        for bank_id in all_banks:
            if open_row[bank_id] >= 0:
                if cycle >= self._next_pre[bank_id]:
                    self._precharge(bank_id, cycle)
                    return True
                return False
        if not self.device.can_rfm(all_banks, cycle):
            return False
        refreshed = self.device.rfm(all_banks, cycle)
        self.stats.rfms += 1
        self.stats.preventive_refresh_rows += refreshed
        if not self.device.wants_more_rfm():
            self._in_recovery = False
            self._rfm_due_cycle = None
        return True

    def _precharge(self, bank_id: int, cycle: int) -> None:
        """Issue a PRE and reset the bank's column-over-row streak.

        Every row closure goes through here: the reordering budget belongs
        to the open row, so closing it (for a demand conflict, a periodic
        refresh, an RFM or back-off recovery) resets the bank's hit streak.
        A streak run up against a closed row must not throttle the first
        hits to the next one.
        """
        self.device.precharge(bank_id, cycle)
        self._hit_streak[bank_id] = 0

    # ------------------------------------------------------------------ #
    # Periodic refresh
    # ------------------------------------------------------------------ #
    def _service_refresh(self, cycle: int) -> bool:
        pending_ranks = self.refresh.ranks_needing_refresh()
        device = self.device
        open_row = self._open_rows
        next_pre = self._next_pre
        urgent_ranks = self.refresh.urgent_ranks()
        for rank in pending_ranks:
            if rank not in urgent_ranks:
                # Postpone the REF (DDR5 allows up to four postponements)
                # unless the rank is completely idle, in which case refresh
                # opportunistically.
                if self._rank_demand[rank]:
                    continue
                if device.can_refresh(rank, cycle):
                    device.refresh(rank, cycle)
                    self.refresh.refresh_issued(rank)
                    self.stats.refreshes += 1
                    return True
                continue
            # Urgent: new activations to this rank are blocked (see
            # _serve_request); close its open banks (first ready one, in id
            # order), then refresh.
            any_open = False
            for bank_id in device.banks_in_rank(rank):
                if open_row[bank_id] >= 0:
                    any_open = True
                    if cycle >= next_pre[bank_id]:
                        self._precharge(bank_id, cycle)
                        return True
            if any_open:
                continue
            if device.can_refresh(rank, cycle):
                device.refresh(rank, cycle)
                self.refresh.refresh_issued(rank)
                self.stats.refreshes += 1
                return True
        return False

    # ------------------------------------------------------------------ #
    # Controller-side mechanism servicing
    # ------------------------------------------------------------------ #
    def _service_prfm(self, cycle: int) -> bool:
        mechanism = self.mechanism
        if mechanism is None:
            return False
        pending = mechanism.rfm_pending_banks()
        if not pending:
            return False
        open_row = self._open_rows
        for bank_id in pending:
            if open_row[bank_id] >= 0:
                if cycle >= self._next_pre[bank_id]:
                    self._precharge(bank_id, cycle)
                    return True
                continue
            if cycle >= self._next_act[bank_id]:
                refreshed = self.device.rfm([bank_id], cycle)
                mechanism.acknowledge_rfm(
                    bank_id,
                    cycle,
                    on_die_refreshed=(
                        refreshed if self.device.mitigation is not None else None
                    ),
                )
                self.stats.rfms += 1
                self.stats.preventive_refresh_rows += mechanism.victim_rows_per_aggressor
                return True
        return False

    def _service_preventive(self, cycle: int) -> bool:
        mechanism = self.mechanism
        if mechanism is None or not mechanism.has_pending_refreshes():
            return False
        open_row = self._open_rows
        # Direct key iteration over the pruned pending dict (hot-path
        # contract): safe because the dict is only mutated on a served
        # refresh, which returns out of the loop immediately.
        for bank_id in mechanism._pending:
            if open_row[bank_id] >= 0:
                if cycle >= self._next_pre[bank_id]:
                    self._precharge(bank_id, cycle)
                    return True
                continue
            if cycle >= self._next_act[bank_id]:
                refresh = mechanism.pop_refresh(bank_id, cycle)
                if refresh is None:
                    continue
                self.device.victim_refresh(bank_id, refresh.num_rows, cycle)
                self.stats.preventive_refresh_rows += refresh.num_rows
                return True
        return False

    # ------------------------------------------------------------------ #
    # Demand request servicing (FR-FCFS + Cap)
    # ------------------------------------------------------------------ #
    def _write_drain(self) -> bool:
        """The write-drain hysteresis, free of side effects.

        Returns the drain flag the next demand service holds, from the
        stored flag and the two queue counts: start draining at
        ``write_drain_high`` writes (or when only writes are queued), stop
        at ``write_drain_low``.  It is True only while writes are queued.
        """
        writes = self._write_count
        if self._draining_writes and writes > self.write_drain_low:
            return True
        return writes >= self.write_drain_high or (
            writes > 0 and not self._read_count
        )

    def _active_queue_is_reads(self) -> bool:
        """Pick the queue type to serve this tick, storing the drain flag."""
        draining = self._draining_writes = self._write_drain()
        return not draining

    def _service_demand(self, cycle: int) -> bool:
        is_read = self._active_queue_is_reads()
        # The cached demand hint is the exact minimum readiness over the
        # queued banks of the active queue, so a strictly-future hint proves
        # no candidate can issue -- the whole pass (pure on failure) is
        # skipped.  The hysteresis above still ran, so the drain flag's
        # trajectory is unchanged.  Disabled while a bank that could issue
        # at the last recompute exists (see __init__); a hint computed for
        # the other queue (an enqueue flipped it) is dropped.
        hint = self._demand_hint
        if hint is not None:
            if self._demand_drains != self._draining_writes:
                self._demand_hint = None
            elif cycle < hint and not self._demand_ready_now:
                return False
        if is_read:
            if not self._read_count:
                return False
            buckets = self._read_buckets
            next_col = self._next_rd
        else:
            buckets = self._write_buckets
            next_col = self._next_wr
        # One pass over the queued banks.  Per bank only three requests can
        # differ in outcome -- the head, the oldest row hit and the oldest
        # row conflict; in an open bank the head is one of the other two.
        # The pass finds the oldest hit overall, and it collects as
        # first-ready candidates the requests whose next command the timing
        # allows: a closed bank's head at its own and its rank's ACT
        # release, the oldest hit at the column release, and the oldest
        # conflict at the precharge release unless FR-FCFS keeps the row
        # open for a queued hit (until the bank's streak reaches the cap).
        open_rows = self._open_rows
        next_act = self._next_act
        next_pre = self._next_pre
        rank_next_act = self._rank_next_act
        banks_per_rank = self._banks_per_rank
        streaks = self._hit_streak
        cap = self.scheduler_cap
        candidates: List[MemoryRequest] = []
        best_hit: Optional[MemoryRequest] = None
        for bank_id, bucket in buckets.items():
            head = bucket[0]
            row = open_rows[bank_id]
            if row < 0:
                if (
                    cycle >= next_act[bank_id]
                    and cycle >= rank_next_act[bank_id // banks_per_rank]
                ):
                    candidates.append(head)
                continue
            if head.dram.row == row:
                hit = head
            else:
                hit = None
                for request in bucket:
                    if request.dram.row == row:
                        hit = request
                        break
                if hit is None:
                    if cycle >= next_pre[bank_id]:
                        candidates.append(head)
                    continue
            if best_hit is None or hit.request_id < best_hit.request_id:
                best_hit = hit
            if cycle >= next_col[bank_id]:
                candidates.append(hit)
            if cycle >= next_pre[bank_id] and streaks[bank_id] >= cap:
                if hit is not head:
                    candidates.append(head)
                else:
                    for request in bucket:
                        if request.dram.row != row:
                            candidates.append(request)
                            break
        # FR-FCFS+Cap: the oldest hit goes first unless an older request of
        # its own bank waits and the bank's streak has reached the cap.  Any
        # other pick is the oldest request, which leads the candidates in
        # arrival order when it can issue at all.
        if best_hit is not None:
            bank_id = best_hit.bank_id
            if cycle >= next_col[bank_id] and (
                buckets[bank_id][0].request_id >= best_hit.request_id
                or streaks[bank_id] < cap
            ):
                return self._serve_request(best_hit, is_read, cycle)
        candidates.sort(key=_BY_REQUEST_ID)
        for request in candidates:
            if self._serve_request(request, is_read, cycle):
                return True
        return False

    def _serve_request(
        self, request: MemoryRequest, is_read: bool, cycle: int
    ) -> bool:
        """Issue the next command of ``request``, a candidate of the pass.

        ``_service_demand`` has checked the releases for the command and
        the cap rule, so a column command or a precharge always issues.  An
        ACT can still be refused by an urgent refresh of its rank, and then
        nothing changes.
        """
        bank_id = request.bank_id
        open_row = self._open_rows[bank_id]
        target_row = request.dram.row
        if open_row == target_row:
            hit = request.row_hit if request.row_hit is not None else True
            if is_read:
                done = self.device.read(bank_id, cycle)
            else:
                done = self.device.write(bank_id, cycle)
            self._complete_column(request, is_read, cycle, done, row_hit=hit)
            return True
        if open_row >= 0:
            # The row conflict makes progress, and the PRE zeroes the bank's
            # streak.
            self._precharge(bank_id, cycle)
            self.stats.row_conflicts += 1
            request.row_hit = False
            return True

        # The rank must drain for an overdue periodic refresh first.  The
        # urgent set is cached (almost always the shared empty tuple), so
        # the probe is one containment check per ACT candidate.
        if bank_id // self._banks_per_rank in self.refresh.urgent_ranks():
            return False
        self.device.activate(bank_id, target_row, cycle)
        self.stats.row_misses += 1
        request.row_hit = False
        if self.mechanism is not None:
            self.mechanism.on_activate(bank_id, target_row, cycle)
        return True

    def _complete_column(
        self,
        request: MemoryRequest,
        is_read: bool,
        cycle: int,
        completion: int,
        row_hit: bool,
    ) -> None:
        request.issued_cycle = cycle
        request.completion_cycle = completion
        request.row_hit = row_hit
        self._dequeue(request, is_read)
        if row_hit:
            self._hit_streak[request.bank_id] += 1
            self.stats.row_hits += 1
        else:
            self._hit_streak[request.bank_id] = 0
        if is_read:
            self.stats.reads_served += 1
            self.stats.total_read_latency += completion - request.arrival_cycle
            self._inflight_reads.append(request)
        else:
            self.stats.writes_served += 1
            self._completed.append(request)

    def _retire_inflight(self, cycle: int) -> None:
        reads = self._inflight_reads
        # Read completions are issue cycle + a constant (tCL + tBL), so the
        # list is ordered by completion: checking the head suffices.
        if not reads or reads[0].completion_cycle > cycle:
            return
        still_waiting = []
        completed = self._completed
        for request in reads:
            if request.completion_cycle <= cycle:
                completed.append(request)
            else:
                still_waiting.append(request)
        self._inflight_reads = still_waiting

    # ------------------------------------------------------------------ #
    # Wake hints (the event horizon)
    # ------------------------------------------------------------------ #
    def _next_event_hint(self, cycle: int, issued: bool = False) -> int:
        """Earliest future cycle at which ``tick`` may do useful work.

        Every event source is covered, so the system simulator may advance
        time to exactly this cycle without changing simulated behaviour
        (hints may be conservative -- early -- but never late; the
        strict-tick determinism harness pins this).  Per-bank readiness is
        read from the hoisted device register lists: this hint runs on
        every tick.

        After an issued command (``issued``) the next tick may act at once,
        so the hint is ``cycle + 1`` when a recovery is running, when the
        on-die back-off is asserted but not yet observed (skipping the
        prologue probe would move ``_rfm_due_cycle``), when the issue moved
        the write-drain flag (see below), or when a source can issue now: a
        queued bank, a bank of a rank whose REF is actionable, or a bank
        owing a preventive refresh or an RFM.  The scans check that in the
        same pass that folds their banks into the minimum.  Demand goes
        first: a busy multi-bank run often issues again on the next cycle,
        and then the refresh and mechanism scans are not needed.
        """
        if issued:
            # A recovery due by ``cycle + 1`` is running already, or is the
            # back-off deadline below.
            if self._in_recovery:
                return cycle + 1
            on_die = self._on_die
            if (
                on_die is not None
                and self._rfm_due_cycle is None
                and on_die.backoff_asserted()
            ):
                return cycle + 1
            if self._write_drain() != self._draining_writes:
                # The issue moved the write-drain flag.  The hysteresis
                # depends on the order of counts it sees, so the next demand
                # service must store the flag on the next cycle, before a
                # later enqueue moves the counts.
                return cycle + 1

        # Demand requests, bucketed per bank: only the queue the next
        # _service_demand serves.  Every issued command drops the cached
        # value, so after one it is recomputed here.
        demand = self._demand_hint
        if demand is None or demand <= cycle:
            demand = self._demand_hint = self._demand_ready_cycle(cycle)
            if issued and self._demand_ready_now:
                return cycle + 1
        best = demand
        open_row = self._open_rows
        next_pre = self._next_pre
        next_act = self._next_act

        # Periodic refresh: a skip must never jump past a tREFI boundary,
        # otherwise REFs would silently be postponed beyond the DDR5 limit.
        due = self.refresh.next_due_cycle()
        if cycle < due < best:
            best = due

        # Back-off recovery deadline (mitigation recovery window).
        rfm_due = self._rfm_due_cycle
        if rfm_due is not None and not self._in_recovery and cycle < rfm_due < best:
            best = rfm_due

        if self._in_recovery:
            # Recovery needs every bank precharged, then an all-bank RFM.
            for bank_id in self._all_banks:
                ready = (
                    next_pre[bank_id]
                    if open_row[bank_id] >= 0
                    else next_act[bank_id]
                )
                if cycle < ready < best:
                    best = ready
        else:
            pending_ranks = self.refresh.ranks_needing_refresh()
            if pending_ranks:
                rank_demand = self._rank_demand
                urgent_ranks = self.refresh.urgent_ranks()
                device = self.device
                for rank in pending_ranks:
                    # A postponed REF is only actionable when urgent or when
                    # the rank is idle; otherwise the next refresh event is
                    # the accrual boundary already covered above.
                    if rank not in urgent_ranks and rank_demand[rank]:
                        continue
                    for bank_id in device.banks_in_rank(rank):
                        ready = (
                            next_pre[bank_id]
                            if open_row[bank_id] >= 0
                            else next_act[bank_id]
                        )
                        if ready > cycle:
                            if ready < best:
                                best = ready
                        elif issued:
                            return cycle + 1

        mechanism = self.mechanism
        if mechanism is not None:
            for bank_id in mechanism._pending:
                ready = (
                    next_pre[bank_id] if open_row[bank_id] >= 0 else next_act[bank_id]
                )
                if ready > cycle:
                    if ready < best:
                        best = ready
                elif issued:
                    return cycle + 1
            for bank_id in mechanism.rfm_pending_banks():
                ready = (
                    next_pre[bank_id] if open_row[bank_id] >= 0 else next_act[bank_id]
                )
                if ready > cycle:
                    if ready < best:
                        best = ready
                elif issued:
                    return cycle + 1

        reads = self._inflight_reads
        if reads:
            # Ordered by completion (issue cycle + constant): head is first.
            completion = reads[0].completion_cycle
            if cycle < completion < best:
                best = completion

        return best

    def _bank_demand_ready(self, bank_id: int, is_read: bool) -> int:
        """Readiness of one queued bank, for the enqueue fold.

        The per-bank body of :meth:`_demand_ready_cycle`, kept conservative
        for an open bank: the earlier of the column and precharge release,
        without scanning the bucket for hits and conflicts.
        """
        if self._open_rows[bank_id] < 0:
            ready = self._next_act[bank_id]
            rank_ready = self._rank_next_act[bank_id // self._banks_per_rank]
            return rank_ready if rank_ready > ready else ready
        col = (
            self._next_rd[bank_id] if is_read else self._next_wr[bank_id]
        )
        pre = self._next_pre[bank_id]
        return col if col < pre else pre

    def _demand_ready_cycle(self, cycle: int) -> int:
        """Earliest strictly-future cycle at which a queued demand can issue.

        Walks only the buckets of the queue the next ``_service_demand``
        serves (recorded in ``_demand_drains``) and applies the rules under
        which ``_serve_request`` issues: a closed bank at the later of its
        own and its rank's ACT release; an open bank at its column release
        if its bucket holds a hit to the open row, and at its precharge
        release if the bucket holds a conflict that FR-FCFS would not hold
        back (no hit queued, or the bank's cap is reached).
        Also records in ``_demand_ready_now`` whether a queued bank can issue
        at or before ``cycle`` (see ``__init__``).
        """
        drains = self._demand_drains = self._write_drain()
        if drains:
            buckets = self._write_buckets
            col = self._next_wr
        else:
            buckets = self._read_buckets
            col = self._next_rd
        best = FAR_FUTURE
        next_act = self._next_act
        next_pre = self._next_pre
        open_row = self._open_rows
        banks_per_rank = self._banks_per_rank
        rank_next_act = self._rank_next_act
        streaks = self._hit_streak
        cap = self.scheduler_cap
        ready_now = False
        for bank_id, bucket in buckets.items():
            row = open_row[bank_id]
            if row < 0:
                ready = next_act[bank_id]
                rank_ready = rank_next_act[bank_id // banks_per_rank]
                if rank_ready > ready:
                    ready = rank_ready
            else:
                head_is_hit = bucket[0].dram.row == row
                for request in bucket:
                    if (request.dram.row == row) != head_is_hit:
                        # Hits and conflicts queued: the conflict's
                        # precharge waits until the cap stops the hits.
                        ready = col[bank_id]
                        if streaks[bank_id] >= cap:
                            pre = next_pre[bank_id]
                            if pre < ready:
                                ready = pre
                        break
                else:
                    ready = col[bank_id] if head_is_hit else next_pre[bank_id]
            if ready <= cycle:
                ready_now = True
            elif ready < best:
                best = ready
        self._demand_ready_now = ready_now
        return best
