"""Trace-driven core model.

Each core replays a memory-access trace through a bounded instruction window,
mirroring the processor model of Table 2 (4.2 GHz, 4-wide issue, 128-entry
instruction window):

* non-memory instructions retire at the peak issue rate;
* memory accesses first probe the shared LLC; hits complete after a fixed
  latency, misses become DRAM read requests;
* an access may only be *dispatched* once every instruction that is
  ``window_size`` instructions older has retired (in-order retirement), and
  at most ``max_outstanding`` DRAM reads may be in flight (MSHR limit);
* writes and writebacks are posted -- they generate DRAM traffic but do not
  stall the core.

The core is event-based: it exposes the earliest cycle at which it can make
progress, so the system simulator can skip idle cycles without losing
accuracy.  Traces wrap around until the core retires its instruction target,
which keeps memory contention alive for multi-programmed mixes whose
applications finish at different times (the standard weighted-speedup
methodology).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, TYPE_CHECKING

from repro.controller.request import MemoryRequest, RequestPool, RequestType
from repro.cpu.cache import Cache, CacheAccessResult
from repro.cpu.trace import Trace
from repro.dram.timing import FAR_FUTURE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import MemoryController


def _shifts_exactly(gap_cycles: list[float], end_cycle: int) -> bool:
    """True if ``cycle + g`` rounds alike for every whole ``cycle <= end_cycle``.

    The replay reads a front-end ready cycle ``cycle + g`` only through
    ``> cycle`` and ``ceil``; both shift with ``cycle`` by whole cycles when
    the float sum never rounds across an integer: ``g`` is integral, or
    farther from the nearest integer than the sum's unit in the last place.
    """
    return all(
        g.is_integer() or abs(g - round(g)) > math.ulp(end_cycle + g)
        for g in set(gap_cycles)
    )


@dataclass(slots=True)
class _OutstandingAccess:
    """A dispatched memory access occupying the instruction window."""

    position: int
    completion_cycle: Optional[int]
    request: Optional[MemoryRequest] = None


class Core:
    """One trace-driven core of the simulated multi-core system."""

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        llc: Cache,
        clock_ratio: float = 2.625,
        issue_width: int = 4,
        window_size: int = 128,
        max_outstanding: int = 16,
        llc_hit_latency: int = 16,
        instruction_target: Optional[int] = None,
        bypass_llc: bool = False,
        request_pool: Optional[RequestPool] = None,
    ) -> None:
        """Create a core.

        Args:
            core_id: index of this core in the system.
            trace: the memory access trace the core replays.
            llc: the shared last-level cache.
            clock_ratio: core clock cycles per DRAM clock cycle (4.2 GHz over
                1.6 GHz = 2.625).
            issue_width: instructions issued per core cycle.
            window_size: instruction window (ROB) entries.
            max_outstanding: maximum in-flight DRAM reads (MSHR entries).
            llc_hit_latency: LLC hit latency in DRAM cycles.
            instruction_target: retire this many instructions before the core
                reports itself finished (defaults to one full pass of the
                trace).
            bypass_llc: if True, every access goes straight to DRAM (models an
                attacker that flushes its lines, as the §11 performance-attack
                study assumes).
            request_pool: shared :class:`~repro.controller.request.RequestPool`
                the core allocates its memory requests from (a private pool is
                created when omitted, so standalone cores keep working).
        """
        if clock_ratio <= 0 or issue_width <= 0 or window_size <= 0:
            raise ValueError("core parameters must be positive")
        self.core_id = core_id
        self.trace = trace
        self.llc = llc
        self.clock_ratio = clock_ratio
        self.issue_width = issue_width
        self.window_size = window_size
        self.max_outstanding = max_outstanding
        self.llc_hit_latency = llc_hit_latency
        self.bypass_llc = bypass_llc
        self.request_pool = request_pool if request_pool is not None else RequestPool()
        self.instruction_target = (
            trace.total_instructions if instruction_target is None else instruction_target
        )
        #: Instructions retired per DRAM cycle when nothing stalls.
        self.instructions_per_dram_cycle = issue_width * clock_ratio
        # The trace, decomposed once into parallel plain lists (gap, aligned
        # line address, is-write, front-end cycles per gap): the dispatch
        # loop then reads list slots instead of chasing entry-object
        # attributes, re-aligning the address and re-dividing the gap on
        # every attempt.
        line_size = llc.line_size
        entries = trace.entries
        self._gaps = [entry.gap_instructions for entry in entries]
        self._lines = [(entry.address // line_size) * line_size for entry in entries]
        self._is_writes = [entry.is_write for entry in entries]
        ipc = self.instructions_per_dram_cycle
        self._gap_cycles = [gap / ipc for gap in self._gaps]
        self._trace_len = len(self._gaps)
        # Dispatch probe, pre-bound (one attribute hop per dispatch).
        self._probe_hit = llc.access_if_hit

        # Trace cursor (wraps around).
        self._index = 0
        # Front-end progress, in DRAM cycles (fractional).
        self._front_cycle = 0.0
        # Cumulative instruction position of the *next* memory access.
        self._position = 0
        self._outstanding: Deque[_OutstandingAccess] = deque()
        self._reads_in_flight = 0
        # True when _position moved since the last retirement check.
        self._dispatched_since_retire = True
        # Posted writes (write-allocate fills, dirty-victim writebacks) that
        # bounced off a full write queue; retried in order before any new
        # dispatch so no DRAM write traffic is ever silently dropped.
        self._pending_posted_writes: Deque[int] = deque()
        # Cached current-access fields and the (fractional) cycle its
        # preceding instructions are fetched by: the failed-dispatch fast
        # path is a single comparison instead of a list lookup plus a
        # division.
        self._cur_gap = self._gaps[0]
        self._cur_line = self._lines[0]
        self._cur_write = self._is_writes[0]
        self._ready_cycle = self._gap_cycles[0]

        # Issue-gating state maintained for the system simulator's main
        # loop: after a failed dispatch, ``try_issue`` records the earliest
        # cycle at which retrying can possibly succeed (``_wake_cycle``) and
        # whether a retry is also warranted as soon as any DRAM command
        # issues (``_retry_on_issue`` -- controller queue space only frees
        # when the controller issues).  The gate is exact, not heuristic:
        # a skipped call is one that would have been a no-op, so the gated
        # schedule is byte-identical to calling ``try_issue`` every cycle.
        self._wake_cycle = 0
        self._retry_on_issue = False
        # Retired window entries are recycled: the request path allocates no
        # bookkeeping objects in steady state.
        self._access_pool: list = []

        # Progress accounting.
        self.retired_instructions = 0
        self.finish_cycle: Optional[int] = None
        self.mem_reads = 0
        self.mem_writes = 0
        self.llc_hits = 0
        self.llc_misses = 0

    # ------------------------------------------------------------------ #
    # Progress / completion
    # ------------------------------------------------------------------ #
    @property
    def finished(self) -> bool:
        """True once the core has retired its instruction target."""
        return self.finish_cycle is not None

    @property
    def quiet(self) -> bool:
        """Finished, with no DRAM read in flight and no buffered posted write."""
        return (
            self.finish_cycle is not None
            and not self._reads_in_flight
            and not self._pending_posted_writes
        )

    def ipc(self) -> float:
        """Instructions per *core* cycle up to the finish point."""
        if self.finish_cycle is None or self.finish_cycle == 0:
            return 0.0
        core_cycles = self.finish_cycle * self.clock_ratio
        return self.instruction_target / core_cycles

    def notify_completion(self, request: MemoryRequest, cycle: int) -> None:
        """A DRAM request issued by this core completed."""
        self._wake_cycle = 0
        for access in self._outstanding:
            if access.request is request:
                access.completion_cycle = max(cycle, request.completion_cycle or cycle)
                if request.is_read:
                    self._reads_in_flight -= 1
                # Drop the reference: the caller may recycle the request
                # through the pool, and a recycled object must never match
                # a stale window entry here.
                access.request = None
                break

    # ------------------------------------------------------------------ #
    # Issuing
    # ------------------------------------------------------------------ #
    def try_issue(self, cycle: int, controller: "MemoryController") -> bool:
        """Attempt to dispatch the next trace access at ``cycle``.

        Returns True if an access was dispatched (the system should call
        again in the same cycle to exploit the full dispatch bandwidth).
        """
        # Retire only when it can do something: bookkeeping moved since the
        # last call, or the window head's completion matured.  The guard is
        # exact -- _retire is a no-op otherwise -- and skips the call on
        # most failed retries.
        outstanding = self._outstanding
        if self._dispatched_since_retire:
            self._retire(cycle)
        elif outstanding:
            completion = outstanding[0].completion_cycle
            if completion is not None and completion <= cycle:
                self._retire(cycle)
        if self._pending_posted_writes:
            self._drain_posted_writes(controller, cycle)

        # Front-end: the access cannot dispatch before its preceding
        # instructions have been fetched / executed.
        ready_cycle = self._ready_cycle
        if ready_cycle > cycle:
            return self._block(cycle)
        dispatch_position = self._position + self._cur_gap

        # Instruction-window constraint: the instruction ``window_size``
        # older must have retired.
        if not self._window_allows(dispatch_position, cycle):
            return self._block(cycle)

        # MSHR constraint.
        if self._reads_in_flight >= self.max_outstanding:
            return self._block(cycle)

        line_address = self._cur_line
        is_write = self._cur_write
        # Probe-before-access: a dispatch that fails on a full read queue
        # must be entirely side-effect-free, otherwise the failed attempt
        # allocates the line (turning the retry into a phantom LLC hit that
        # never reads DRAM) and drops the evicted victim's writeback.
        # ``access_if_hit`` fuses the pure probe with the hit access (one
        # set lookup); only a committed miss runs the mutating ``access``.
        hit_result = (
            None if self.bypass_llc
            else self._probe_hit(line_address, is_write)
        )

        access_pool = self._access_pool
        if access_pool:
            access = access_pool.pop()
            access.position = dispatch_position
            access.completion_cycle = None
            access.request = None
        else:
            access = _OutstandingAccess(position=dispatch_position, completion_cycle=None)
        if hit_result is not None:
            result = hit_result
            self.llc_hits += 1
            access.completion_cycle = cycle + self.llc_hit_latency
        elif is_write:
            result = (
                CacheAccessResult(hit=False)
                if self.bypass_llc
                else self.llc.access(line_address, is_write)
            )
            self.llc_misses += 1
            # Write-allocate: fetch the line, but do not stall the core.
            self._post_write(controller, line_address, cycle)
            access.completion_cycle = cycle + self.llc_hit_latency
        else:
            request = self.request_pool.acquire(
                line_address, RequestType.READ, self.core_id, cycle
            )
            if not controller.enqueue(request):
                # Queue full: retry later (nothing was mutated above).  Queue
                # space only frees when the controller issues a command, so
                # the retry is gated on issue events rather than on time.
                self.request_pool.release(request)
                self._wake_cycle = self.next_event_cycle(cycle)
                self._retry_on_issue = True
                return False
            result = (
                CacheAccessResult(hit=False)
                if self.bypass_llc
                else self.llc.access(line_address, is_write)
            )
            self.llc_misses += 1
            access.request = request
            self._reads_in_flight += 1
            self.mem_reads += 1
        if result.writeback_address is not None:
            self._post_write(controller, result.writeback_address, cycle)

        if is_write:
            self.mem_writes += 1

        self._outstanding.append(access)
        self._position = dispatch_position + 1
        self._dispatched_since_retire = True
        front = self._front_cycle
        if cycle > front:
            front = float(cycle)
        if ready_cycle > front:
            front = ready_cycle
        self._front_cycle = front
        # Advance the trace cursor (inlined: one call per dispatch on the
        # hottest path in the simulator).
        index = self._index + 1
        if index >= self._trace_len:
            index = 0
        self._index = index
        self._cur_gap = self._gaps[index]
        self._cur_line = self._lines[index]
        self._cur_write = self._is_writes[index]
        self._ready_cycle = front + self._gap_cycles[index]
        return True

    def _block(self, cycle: int) -> bool:
        """Record why this dispatch attempt failed; always returns False.

        The wake cycle is the earliest future event that can change the
        blocked state.  Retirement is strictly in-order, so of all pending
        completions only the *head* of the instruction window matters: a
        younger access completing earlier cannot unblock the window, free an
        MSHR (DRAM reads re-arm the gate via :meth:`notify_completion`
        instead) or move the retired-instruction count while the head is
        stuck.  The head completion is skipped for front-end-blocked
        finished cores: they dispatch nothing before the front-end is ready
        and have no finish bookkeeping left.  A core with buffered posted
        writes additionally retries whenever the controller issues
        (write-queue space only frees on issue events).
        """
        front = self._ready_cycle
        if front > cycle:
            wake = math.ceil(front)
            consider_head = self.finish_cycle is None
        else:
            wake = FAR_FUTURE
            consider_head = True
        if consider_head and self._outstanding:
            completion = self._outstanding[0].completion_cycle
            if completion is not None and cycle < completion < wake:
                wake = completion
        self._wake_cycle = wake
        self._retry_on_issue = bool(self._pending_posted_writes)
        return False

    def _post_write(self, controller: "MemoryController", address: int, cycle: int) -> None:
        """Send a posted (non-blocking) write to the memory controller.

        Posted writes never stall the core, but they must not vanish either:
        if the write queue is full the address is buffered and retried (in
        order) at the next dispatch attempt.
        """
        if self._pending_posted_writes:
            # Keep the posted-write stream FIFO: never let a new write jump
            # ahead of one that is still waiting for queue space.
            self._pending_posted_writes.append(address)
            return
        request = self.request_pool.acquire(
            address, RequestType.WRITE, self.core_id, cycle
        )
        if not controller.enqueue(request):
            self.request_pool.release(request)
            self._pending_posted_writes.append(address)

    def _drain_posted_writes(self, controller: "MemoryController", cycle: int) -> None:
        """Retry buffered posted writes while the queue accepts them."""
        pending = self._pending_posted_writes
        pool = self.request_pool
        while pending:
            request = pool.acquire(
                pending[0], RequestType.WRITE, self.core_id, cycle
            )
            if not controller.enqueue(request):
                pool.release(request)
                return
            pending.popleft()

    # ------------------------------------------------------------------ #
    # Retirement
    # ------------------------------------------------------------------ #
    def _window_allows(self, dispatch_position: int, cycle: int) -> bool:
        """True if the instruction window has room for ``dispatch_position``."""
        boundary = dispatch_position - self.window_size
        while self._outstanding and self._outstanding[0].position <= boundary:
            access = self._outstanding[0]
            if access.completion_cycle is None or access.completion_cycle > cycle:
                return False
            self._outstanding.popleft()
            self._access_pool.append(access)
        return True

    def _retire(self, cycle: int) -> None:
        """Retire completed accesses and update the instruction count."""
        outstanding = self._outstanding
        progressed = self._dispatched_since_retire
        while outstanding:
            access = outstanding[0]
            completion = access.completion_cycle
            if completion is None or completion > cycle:
                break
            outstanding.popleft()
            self._access_pool.append(access)
            progressed = True
        if progressed:
            self._dispatched_since_retire = False
            if self.finish_cycle is None:
                # Retired instructions are approximated by the front-end
                # position of the oldest un-retired access (in-order
                # retirement); it only moves when an access retires or a new
                # one dispatches, so the check is skipped otherwise.
                retired = self._position
                if outstanding and outstanding[0].position < retired:
                    retired = outstanding[0].position
                self.retired_instructions = retired
                if retired >= self.instruction_target:
                    self.finish_cycle = cycle

    # ------------------------------------------------------------------ #
    # Parked replay
    # ------------------------------------------------------------------ #
    def replay_hits(self, end_cycle: int) -> None:
        """Dispatch every access this parked core would dispatch up to and
        including ``end_cycle``; each one is an LLC hit.

        A second implementation of ``try_issue``'s rules for a :attr:`quiet`
        core whose lines all stay in the LLC (retirement, the front end, the
        instruction window; the MSHR limit cannot bind with no read in
        flight), keeping its state in local variables.  Stepping
        ``try_issue`` at each wake cycle instead, which tests pin this loop
        against, loses most of parking's end-to-end gain
        (docs/ARCHITECTURE.md, "Parked cores").  A probe that misses means
        the parking rule was wrong and raises ``RuntimeError``.

        The replay is periodic: at each trace-pass boundary the loop keys
        the instruction window relative to the current cycle and position,
        and once a key repeats it jumps over every whole period that ends
        by ``end_cycle`` -- shifting the cycle, the position, the window
        entries and the hit and write counters -- and steps the rest.  It
        jumps only when shifting time by whole cycles leaves every
        front-end rounding unchanged (:func:`_shifts_exactly`); the docs
        give the argument that the jump leaves exactly the state stepping
        leaves, LLC contents and LRU order included.
        """
        if self.bypass_llc or not self.quiet:
            raise RuntimeError(f"core {self.core_id} is not parkable")
        cycle = self._wake_cycle
        if cycle > end_cycle:
            return
        # Window keys seen at trace-pass boundaries -> the boundary's
        # (cycle, position, hits, writes); None once the replay jumped or
        # when it may not jump at all.
        boundaries = {} if _shifts_exactly(self._gap_cycles, end_cycle) else None
        probe = self._probe_hit
        outstanding = self._outstanding
        access_pool = self._access_pool
        gaps = self._gaps
        lines = self._lines
        is_writes = self._is_writes
        gap_cycles = self._gap_cycles
        trace_len = self._trace_len
        window_size = self.window_size
        latency = self.llc_hit_latency
        position = self._position
        index = self._index
        front = self._front_cycle
        ready = self._ready_cycle
        hits = writes = 0
        while True:
            # One try_issue call: retire the completed window head first.
            while outstanding and outstanding[0].completion_cycle <= cycle:
                access_pool.append(outstanding.popleft())
            if ready > cycle:
                # Front-end block (a finished core ignores the window head).
                wake = math.ceil(ready)
            else:
                dispatch_position = position + gaps[index]
                if outstanding and outstanding[0].position <= dispatch_position - window_size:
                    # Window block: the head is still in flight.
                    wake = outstanding[0].completion_cycle
                else:
                    is_write = is_writes[index]
                    if probe(lines[index], is_write) is None:
                        raise RuntimeError(
                            f"parked core {self.core_id} missed the LLC at cycle {cycle}"
                        )
                    hits += 1
                    if is_write:
                        writes += 1
                    if access_pool:
                        access = access_pool.pop()
                        access.position = dispatch_position
                        access.completion_cycle = cycle + latency
                    else:
                        access = _OutstandingAccess(dispatch_position, cycle + latency)
                    outstanding.append(access)
                    position = dispatch_position + 1
                    # try_issue's front update; the ready cycle cannot
                    # exceed ``cycle`` here.
                    if cycle > front:
                        front = float(cycle)
                    index += 1
                    if index >= trace_len:
                        index = 0
                        if boundaries is not None:
                            # At a boundary front == cycle and index == 0,
                            # so the window alone decides what follows.
                            # reprolint: disable=hot-path-alloc -- one key
                            # per trace pass, and only until the first repeat.
                            key = tuple(
                                (entry.position - position, entry.completion_cycle - cycle)
                                for entry in outstanding
                            )
                            seen = boundaries.get(key)
                            if seen is None:
                                boundaries[key] = (cycle, position, hits, writes)
                            else:
                                # Jump every whole period that ends by
                                # end_cycle; the rest is shorter than one.
                                then_cycle, then_position, then_hits, then_writes = seen
                                periods = (end_cycle - cycle) // (cycle - then_cycle)
                                shift = periods * (cycle - then_cycle)
                                advance = periods * (position - then_position)
                                for entry in outstanding:
                                    entry.position += advance
                                    entry.completion_cycle += shift
                                cycle += shift
                                position += advance
                                front = float(cycle)
                                skipped = periods * (hits - then_hits)
                                self.llc.stats.hits += skipped
                                hits += skipped
                                writes += periods * (writes - then_writes)
                                boundaries = None
                    ready = front + gap_cycles[index]
                    continue
            if wake > end_cycle:
                break
            cycle = wake
        self.llc_hits += hits
        self.mem_writes += writes
        self._position = position
        self._index = index
        self._front_cycle = front
        self._ready_cycle = ready
        self._cur_gap = gaps[index]
        self._cur_line = lines[index]
        self._cur_write = is_writes[index]
        self._wake_cycle = wake
        self._retry_on_issue = False
        self._dispatched_since_retire = False

    # ------------------------------------------------------------------ #
    # Event hints
    # ------------------------------------------------------------------ #
    def next_event_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which this core can make progress."""
        best = FAR_FUTURE
        front = self._ready_cycle
        if front > cycle:
            best = math.ceil(front)
        for access in self._outstanding:
            completion = access.completion_cycle
            if completion is not None and cycle < completion < best:
                best = completion
        return best
