"""Tests for the trace-driven core model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.address_mapping import mop_mapping
from repro.controller.controller import MemoryController
from repro.cpu.cache import Cache
from repro.cpu.core import Core
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.device import DramDevice
from repro.dram.organization import DramOrganization
from repro.dram.timing import ddr5_3200an


ORG = DramOrganization(ranks=1, bankgroups=2, banks_per_group=2, rows=512, columns=32)


def make_system():
    device = DramDevice(ORG, ddr5_3200an())
    controller = MemoryController(device, mop_mapping(ORG))
    llc = Cache(size_bytes=64 * 1024, associativity=8, line_size=64)
    return controller, llc


def run_core(core, controller, max_cycles=200_000):
    cycle = 0
    while not core.finished and cycle < max_cycles:
        while core.try_issue(cycle, controller):
            pass
        issued, hint = controller.tick(cycle)
        completed = controller.drain_completed()
        for request in completed:
            if request.is_read:
                core.notify_completion(request, cycle)
        if completed and not issued:
            # Same-cycle completions unblock the core; retry before advancing.
            continue
        if issued:
            cycle += 1
        else:
            wake = min(hint, core.next_event_cycle(cycle))
            cycle = cycle + 1 if wake <= cycle else min(wake, max_cycles)
    return cycle


def streaming_trace(num_accesses=50, gap=20, stride=64, write_every=0):
    entries = []
    for index in range(num_accesses):
        is_write = write_every > 0 and index % write_every == 0
        entries.append(TraceEntry(gap_instructions=gap, address=index * stride,
                                  is_write=is_write))
    return Trace("stream", entries)


class TestCoreExecution:
    def test_core_finishes_and_reports_ipc(self):
        controller, llc = make_system()
        core = Core(0, streaming_trace(), llc)
        final_cycle = run_core(core, controller)
        assert core.finished
        assert core.finish_cycle is not None and core.finish_cycle <= final_cycle
        assert 0 < core.ipc() <= core.issue_width

    def test_finished_core_is_quiet_only_without_reads_in_flight(self):
        controller, llc = make_system()
        # The target is a tenth of the trace: the core finishes while reads
        # of later accesses are still in flight.
        core = Core(0, streaming_trace(num_accesses=100, gap=0), llc, instruction_target=10)
        assert not core.quiet
        run_core(core, controller)
        assert core.finished and core._reads_in_flight > 0
        assert not core.quiet

    def test_llc_hits_do_not_reach_dram(self):
        controller, llc = make_system()
        # Repeatedly access a single line: one DRAM read, then LLC hits.
        entries = [TraceEntry(gap_instructions=5, address=0x100) for _ in range(40)]
        core = Core(0, Trace("hot", entries), llc)
        run_core(core, controller)
        assert core.llc_misses == 1
        assert core.mem_reads == 1
        assert controller.stats.reads_served == 1

    def test_bypass_llc_sends_everything_to_dram(self):
        controller, llc = make_system()
        entries = [TraceEntry(gap_instructions=0, address=0x100) for _ in range(10)]
        core = Core(0, Trace("attack", entries), llc, bypass_llc=True)
        run_core(core, controller)
        # The trace wraps until the instruction target retires, so at least
        # one full pass reaches DRAM and the LLC is never consulted.
        assert core.mem_reads >= 10
        assert core.llc_hits == 0
        assert controller.stats.reads_served >= 10

    def test_memory_bound_core_slower_than_compute_bound(self):
        controller_a, llc_a = make_system()
        compute = Core(0, streaming_trace(num_accesses=30, gap=400), llc_a)
        compute_cycles = run_core(compute, controller_a)

        controller_b, llc_b = make_system()
        memory = Core(0, streaming_trace(num_accesses=30, gap=0, stride=64 * 1024), llc_b)
        run_core(memory, controller_b)
        assert compute.ipc() > memory.ipc()

    def test_writes_do_not_block_retirement(self):
        controller, llc = make_system()
        core = Core(0, streaming_trace(num_accesses=40, write_every=2), llc)
        run_core(core, controller)
        assert core.finished
        assert core.mem_writes > 0

    def test_mshr_limit_bounds_outstanding_reads(self):
        controller, llc = make_system()
        entries = [TraceEntry(gap_instructions=0, address=i * 128 * 1024) for i in range(64)]
        core = Core(0, Trace("burst", entries), llc, max_outstanding=4)
        cycle = 0
        max_in_flight = 0
        while not core.finished and cycle < 100_000:
            while core.try_issue(cycle, controller):
                pass
            max_in_flight = max(max_in_flight, core._reads_in_flight)
            issued, hint = controller.tick(cycle)
            for request in controller.drain_completed():
                if request.is_read:
                    core.notify_completion(request, cycle)
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 1000))
        assert max_in_flight <= 4

    def test_invalid_parameters(self):
        _, llc = make_system()
        with pytest.raises(ValueError):
            Core(0, streaming_trace(), llc, clock_ratio=0)
        with pytest.raises(ValueError):
            Core(0, streaming_trace(), llc, window_size=0)

    def test_trace_wraps_until_target(self):
        controller, llc = make_system()
        trace = streaming_trace(num_accesses=10, gap=10)
        core = Core(0, trace, llc, instruction_target=3 * trace.total_instructions)
        run_core(core, controller)
        assert core.finished
        assert core.retired_instructions >= 3 * trace.total_instructions

    def test_posted_writes_survive_a_full_write_queue(self):
        """Writes that bounce off a full queue are retried, never dropped.

        A failed posted-write enqueue used to vanish silently, under-counting
        DRAM write traffic (and the activations it causes).  The core now
        buffers bounced writes and drains them in order before new dispatches:
        every write the core posts is eventually served, still queued, or
        waiting in the retry buffer -- a conservation law.
        """
        device = DramDevice(ORG, ddr5_3200an())
        controller = MemoryController(device, mop_mapping(ORG),
                                      write_queue_size=2,
                                      write_drain_high=2, write_drain_low=0)
        llc = Cache(size_bytes=64 * 1024, associativity=8, line_size=64)
        # Every access is a write miss (write-allocate posts a fill): with a
        # 2-entry write queue and no compute gaps the queue overflows.
        trace = streaming_trace(num_accesses=40, gap=0, stride=4096,
                                write_every=1)
        core = Core(0, trace, llc, max_outstanding=64)

        posted = 0
        original_post = core._post_write

        def counting_post(controller_, address, cycle):
            nonlocal posted
            posted += 1
            original_post(controller_, address, cycle)

        core._post_write = counting_post

        rejections = 0
        original_enqueue = controller.enqueue

        def spying_enqueue(request):
            nonlocal rejections
            accepted = original_enqueue(request)
            if not accepted and request.is_write:
                rejections += 1
            return accepted

        controller.enqueue = spying_enqueue

        cycle = run_core(core, controller)
        assert core.finished
        assert posted >= 40           # one fill per write miss (plus writebacks)
        assert rejections > 0         # the tiny queue really did overflow
        # Let the controller drain what it accepted (the core is done, so no
        # new traffic arrives; the retry buffer keeps whatever still bounced).
        while controller.pending_requests() and cycle < 500_000:
            issued, hint = controller.tick(cycle)
            controller.drain_completed()
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 10_000))
        # Conservation: every posted write was served or is awaiting retry --
        # none vanished.
        in_retry_buffer = len(core._pending_posted_writes)
        assert controller.stats.writes_served + in_retry_buffer == posted
        # The queue really was the bottleneck, and real progress was made.
        assert in_retry_buffer > 0
        assert controller.stats.writes_served >= 2


class _NoController:
    """A memory controller that a core replaying LLC hits must never reach."""

    def enqueue(self, request):
        pytest.fail("a core replaying LLC hits reached the memory controller")


def finished_core_over_resident_lines(
    entries, window_size=128, llc_hit_latency=16, clock_ratio=2.625
):
    """A core that has just finished, every line of its trace in its LLC.

    ``entries`` are ``(gap_instructions, line, is_write)``; each line lands
    in its own set, so the LLC never evicts.  The core is stepped like the
    system simulator steps it, one ``try_issue`` run per wake cycle.
    """
    llc = Cache(size_bytes=64 * 1024, associativity=8, line_size=64)
    trace = Trace("parked", [
        TraceEntry(gap_instructions=gap, address=line * 64, is_write=is_write)
        for gap, line, is_write in entries
    ])
    for entry in trace.entries:
        llc.access(entry.address, False)
    core = Core(
        0, trace, llc, clock_ratio=clock_ratio, window_size=window_size,
        llc_hit_latency=llc_hit_latency,
    )
    controller = _NoController()
    while not core.finished:
        cycle = core._wake_cycle
        while core.try_issue(cycle, controller):
            pass
    return core


def step_wake_cycles(core, end_cycle):
    """Call ``try_issue`` at each wake cycle up to ``end_cycle``, as the main loop would."""
    controller = _NoController()
    while core._wake_cycle <= end_cycle:
        cycle = core._wake_cycle
        while core.try_issue(cycle, controller):
            pass


def count_probes(core):
    """Count ``core``'s LLC probes; returns the one-element list holding the count."""
    calls = [0]
    probe = core._probe_hit

    def counting(address, is_write):
        calls[0] += 1
        return probe(address, is_write)

    core._probe_hit = counting
    return calls


def replay_state(core):
    """Everything a replay moves; each set's lines in LRU order."""
    llc = core.llc
    return {
        "llc_stats": llc.stats,
        "llc_sets": [list((cache_set or {}).items()) for cache_set in llc._sets],
        "llc_hits": core.llc_hits,
        "mem_writes": core.mem_writes,
        "position": core._position,
        "index": core._index,
        "front_cycle": core._front_cycle,
        "window": [(entry.position, entry.completion_cycle) for entry in core._outstanding],
        "wake_cycle": core._wake_cycle,
        "ready_cycle": core._ready_cycle,
    }


#: Gaps in instructions: 21 instructions are exactly 2 DRAM cycles of the
#: front end (4-wide at 2.625 core cycles per DRAM cycle), and gaps of a few
#: instructions let the instruction window bind before the front end does.
GAPS = st.one_of(
    st.integers(0, 300),
    st.integers(0, 14).map(lambda k: 21 * k),
    st.integers(0, 4),
)


class TestParkedReplay:
    """``Core.replay_hits`` is a second implementation of ``try_issue``'s
    finished-core rules; it must leave exactly the state stepping leaves."""

    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(GAPS, st.integers(0, 63), st.booleans()), min_size=1, max_size=40
        ),
        window_size=st.sampled_from((4, 16, 128)),
        llc_hit_latency=st.integers(1, 40),
        # The long branch crosses many trace periods, so the replay jumps.
        horizon=st.one_of(st.integers(0, 3000), st.integers(10_000, 40_000)),
    )
    def test_replay_matches_stepping_try_issue(
        self, entries, window_size, llc_hit_latency, horizon
    ):
        replayed = finished_core_over_resident_lines(entries, window_size, llc_hit_latency)
        stepped = finished_core_over_resident_lines(entries, window_size, llc_hit_latency)
        end_cycle = replayed.finish_cycle + horizon
        replayed.replay_hits(end_cycle)
        step_wake_cycles(stepped, end_cycle)
        assert replay_state(replayed) == replay_state(stepped)
        assert replayed._wake_cycle > end_cycle

    def test_replay_jumps_whole_periods(self):
        """Over hundreds of trace passes the replay probes only until the
        window state at a pass boundary repeats, then jumps."""
        entries = [
            (21, 1, False), (42, 2, True), (0, 3, False),
            (105, 4, False), (5, 5, True), (63, 6, False),
        ]
        replayed = finished_core_over_resident_lines(entries)
        stepped = finished_core_over_resident_lines(entries)
        probes = count_probes(replayed)
        hits_before = replayed.llc_hits
        end_cycle = replayed.finish_cycle + 10_000
        replayed.replay_hits(end_cycle)
        step_wake_cycles(stepped, end_cycle)
        assert replay_state(replayed) == replay_state(stepped)
        assert replayed.llc_hits - hits_before >= 100 * len(entries)
        assert probes[0] <= 3 * len(entries)

    def test_replay_steps_where_a_shift_rounds_differently(self):
        """Near the paper's clock a 210-instruction gap is 20 cycles plus
        less than an ulp of a late cycle count, so ``cycle + gap`` rounds
        up early in the run and not late: the replay must not jump (a
        jump makes 911 hits here where stepping makes 937)."""
        entries = [(210, 1, False), (231, 2, False)]
        replayed = finished_core_over_resident_lines(entries, clock_ratio=2.6249999999999)
        stepped = finished_core_over_resident_lines(entries, clock_ratio=2.6249999999999)
        end_cycle = replayed.finish_cycle + 20_000
        replayed.replay_hits(end_cycle)
        step_wake_cycles(stepped, end_cycle)
        assert replay_state(replayed) == replay_state(stepped)

    def test_replay_raises_on_a_miss(self):
        core = finished_core_over_resident_lines([(10, 1, False), (10, 2, False)])
        core.llc._sets[2].clear()  # line 2 lives in set 2
        with pytest.raises(RuntimeError, match="missed the LLC"):
            core.replay_hits(core.finish_cycle + 1000)

    def test_replay_refuses_a_core_that_is_not_parkable(self):
        _, llc = make_system()
        unfinished = Core(0, streaming_trace(), llc)
        with pytest.raises(RuntimeError, match="not parkable"):
            unfinished.replay_hits(1000)
        attacker = finished_core_over_resident_lines([(10, 1, False)])
        attacker.bypass_llc = True
        with pytest.raises(RuntimeError, match="not parkable"):
            attacker.replay_hits(attacker.finish_cycle + 1000)
