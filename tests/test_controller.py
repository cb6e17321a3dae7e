"""Tests for the memory controller (end-to-end command sequencing)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.controller.address_mapping import mop_mapping
from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest, RequestType
from repro.core.factory import build_mechanism
from repro.core.graphene import Graphene
from repro.core.mitigation import PreventiveRefresh
from repro.core.prac import PRAC
from repro.core.prfm import PRFM
from repro.dram.device import DramDevice
from repro.dram.organization import DramAddress, DramOrganization
from repro.dram.timing import ddr5_3200an
from scheduler_reference import first_ready_request


ORG = DramOrganization(ranks=1, bankgroups=2, banks_per_group=2, rows=512, columns=32)


def make_controller(mechanism=None, on_die=None, timing=None):
    device = DramDevice(ORG, timing or ddr5_3200an(), mitigation=on_die)
    controller = MemoryController(device, mop_mapping(ORG), mechanism=mechanism)
    return controller, device


def read_request(address, core=0, cycle=0):
    return MemoryRequest(address=address, request_type=RequestType.READ,
                         core_id=core, arrival_cycle=cycle)


def run_until_complete(controller, max_cycles=100_000):
    """Tick the controller until all queued demand requests complete."""
    completed = []
    cycle = 0
    while controller.pending_requests() and cycle < max_cycles:
        issued, hint = controller.tick(cycle)
        completed.extend(controller.drain_completed())
        cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 10_000))
    return completed, cycle


class TestDemandServicing:
    def test_single_read_completes(self):
        controller, device = make_controller()
        request = read_request(0x1000)
        assert controller.enqueue(request)
        completed, _ = run_until_complete(controller)
        assert request in completed
        assert request.completion_cycle is not None
        assert controller.stats.reads_served == 1
        assert device.command_counts["ACT"] == 1
        assert device.command_counts["RD"] == 1

    def test_row_hit_faster_than_row_conflict(self):
        t = ddr5_3200an()
        # Two reads to the same row: the second is a row hit.
        controller, _ = make_controller()
        a = read_request(0x0)
        b = read_request(0x40)  # next cache line, same row under MOP
        controller.enqueue(a)
        controller.enqueue(b)
        run_until_complete(controller)
        assert controller.stats.row_hits >= 1
        assert b.completion_cycle - a.completion_cycle < t.tRC

    def test_conflicting_reads_both_complete(self):
        controller, _ = make_controller()
        mapping = controller.mapping
        # Same bank, different rows.
        from repro.dram.organization import DramAddress

        first = read_request(mapping.encode(DramAddress(0, 0, 0, 0, 10, 0)))
        second = read_request(mapping.encode(DramAddress(0, 0, 0, 0, 11, 0)))
        controller.enqueue(first)
        controller.enqueue(second)
        completed, _ = run_until_complete(controller)
        assert len(completed) == 2
        assert controller.stats.row_conflicts >= 1

    def test_write_completes_and_counts(self):
        controller, device = make_controller()
        write = MemoryRequest(address=0x2000, request_type=RequestType.WRITE,
                              core_id=0, arrival_cycle=0)
        controller.enqueue(write)
        completed, _ = run_until_complete(controller)
        assert write in completed
        assert device.command_counts["WR"] == 1
        assert controller.stats.writes_served == 1

    def test_queue_capacity_enforced(self):
        controller, _ = make_controller()
        controller.read_queue_size = 2
        assert controller.enqueue(read_request(0x0))
        assert controller.enqueue(read_request(0x1000))
        assert not controller.enqueue(read_request(0x2000))
        assert not controller.can_accept(RequestType.READ)

    def test_decoded_coordinates_attached(self):
        controller, _ = make_controller()
        request = read_request(0x12340)
        controller.enqueue(request)
        assert request.dram is not None
        assert 0 <= request.bank_id < ORG.total_banks


class TestRefreshHandling:
    def test_urgent_refresh_eventually_issued(self):
        controller, device = make_controller()
        timing = device.timing
        cycle = 0
        horizon = timing.tREFI * 6
        while cycle < horizon:
            issued, hint = controller.tick(cycle)
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + timing.tREFI))
        assert controller.stats.refreshes >= 1
        assert device.command_counts["REF"] >= 1

    def test_idle_rank_refreshes_opportunistically(self):
        controller, device = make_controller()
        timing = device.timing
        controller.refresh.tick(timing.tREFI + 1)
        issued, _ = controller.tick(timing.tREFI + 1)
        assert issued
        assert device.command_counts["REF"] == 1


class TestPrfmIntegration:
    def test_rfm_issued_after_threshold_activations(self):
        prfm = PRFM(nrh=1024, num_banks=ORG.total_banks, rfm_threshold=2)
        controller, device = make_controller(mechanism=prfm)
        from repro.dram.organization import DramAddress

        mapping = controller.mapping
        for row in range(4):
            controller.enqueue(read_request(mapping.encode(DramAddress(0, 0, 0, 0, row, 0))))
        run_until_complete(controller)
        assert device.command_counts["RFM"] >= 1
        assert controller.stats.rfms >= 1


class TestPreventiveRefreshIntegration:
    def test_queued_refresh_serviced_as_vrr(self):
        graphene = Graphene(nrh=64, num_banks=ORG.total_banks, table_entries=8)
        controller, device = make_controller(mechanism=graphene)
        graphene.queue_refresh(PreventiveRefresh(bank_id=1, aggressor_row=5, num_rows=4))
        cycle = 0
        while graphene.total_pending_rows() and cycle < 10_000:
            issued, hint = controller.tick(cycle)
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 1000))
        assert device.command_counts["VRR"] == 4
        assert controller.stats.preventive_refresh_rows == 4


class TestBackoffIntegration:
    def test_prac_backoff_triggers_rfm_recovery(self):
        prac = PRAC(nrh=1024, num_banks=ORG.total_banks, nbo=1, nref=2)
        timing = ddr5_3200an(prac=True)
        controller, device = make_controller(on_die=prac, timing=timing)
        # Two conflicting reads force a precharge, which increments the PRAC
        # counter of the first row and (with NBO = 1) asserts the back-off.
        from repro.dram.organization import DramAddress

        mapping = controller.mapping
        controller.enqueue(read_request(mapping.encode(DramAddress(0, 0, 0, 0, 10, 0))))
        controller.enqueue(read_request(mapping.encode(DramAddress(0, 0, 0, 0, 11, 0))))
        cycle = 0
        while (controller.pending_requests() or device.backoff_asserted()
               or controller._in_recovery or controller._rfm_due_cycle is not None):
            issued, hint = controller.tick(cycle)
            controller.drain_completed()
            cycle = cycle + 1 if issued else max(cycle + 1, min(hint, cycle + 1000))
            if cycle > 50_000:
                pytest.fail("back-off recovery did not finish")
        assert controller.stats.backoffs_observed == 1
        assert controller.stats.rfms == prac.nref
        assert device.command_counts["RFM"] == prac.nref
        assert not device.backoff_asserted()

    def test_backoff_blocks_demand_after_window(self):
        prac = PRAC(nrh=1024, num_banks=ORG.total_banks, nbo=1, nref=1)
        timing = ddr5_3200an(prac=True)
        controller, device = make_controller(on_die=prac, timing=timing)
        controller._rfm_due_cycle = 100
        assert not controller._backoff_blocks_traffic(50)
        assert controller._backoff_blocks_traffic(100)
        controller._rfm_due_cycle = None
        controller._in_recovery = True
        assert controller._backoff_blocks_traffic(0)


#: The cycle the FR-FCFS+Cap tests tick at, before the first tREFI, so no
#: refresh is due or urgent.
CYCLE = 100
#: One bank's state: open row (-1 = precharged), hit streak, and the ACT,
#: PRE and RD releases as offsets from CYCLE (ready at offsets <= 0).
_RELEASE = st.sampled_from((-1, 0, 1))
BANK_STATE = st.tuples(
    st.integers(-1, 2), st.integers(0, 5), _RELEASE, _RELEASE, _RELEASE
)
#: A precharged bank with every release passed.
CLOSED = (-1, 0, 0, 0, 0)


def OPEN(row, streak=0):
    """An open bank with every release passed."""
    return (row, streak, 0, 0, 0)


def lone_controller(cap, banks, rank_release=0):
    """A controller with ``banks`` (one ``BANK_STATE`` per bank) set on its
    device registers and its hit streaks."""
    device = DramDevice(ORG, ddr5_3200an())
    controller = MemoryController(device, mop_mapping(ORG), scheduler_cap=cap)
    for bank, (row, streak, act, pre, rd) in enumerate(banks):
        device.open_rows[bank] = row
        controller._hit_streak[bank] = streak
        device.next_act[bank] = CYCLE + act
        device.next_pre[bank] = CYCLE + pre
        device.next_rd[bank] = CYCLE + rd
    device.rank_next_act[0] = CYCLE + rank_release
    return controller, device


def queue_reads(controller, queue):
    """Enqueue one read per ``(bank, row)`` of ``queue``, oldest first."""
    requests = []
    for bank, row in queue:
        request = read_request(controller.mapping.encode(
            DramAddress(0, 0, bank // 2, bank % 2, row, len(requests) % 32)
        ))
        assert controller.enqueue(request) and request.bank_id == bank
        requests.append(request)
    return requests


def tick_once(controller, requests):
    """Tick at CYCLE; return the served request (or None) and the commands."""
    issued, _ = controller.tick(CYCLE)
    served = [
        request for request in requests
        if request.issued_cycle is not None or request.row_hit is not None
    ]
    assert len(served) == int(issued)
    return (served[0] if served else None), dict(controller.device.command_counts)


def expected_command(device, request):
    row = device.open_rows[request.bank_id]
    if row == request.dram.row:
        return "RD"
    return "PRE" if row >= 0 else "ACT"


class TestFrFcfsCap:
    """The controller applies FR-FCFS+Cap, checked against a flat rescan.

    ``tests/scheduler_reference.py`` states the rule over a flat queue: the
    FR-FCFS+Cap pick, else the first request in arrival order whose command
    can issue.  The controller looks at three requests per bank in one pass;
    these tests hold it to the full rescan.
    """

    def check(self, cap, banks, queue, rank_release=0):
        """One tick serves what the reference names, and moves the streaks
        as the command says; return the served request's queue index."""
        controller, device = lone_controller(cap, banks, rank_release)
        requests = queue_reads(controller, queue)
        streaks = list(controller._hit_streak)
        expected = first_ready_request(requests, CYCLE, device, streaks, cap)
        command = expected and expected_command(device, expected)
        served, commands = tick_once(controller, requests)
        assert served is expected
        if expected is None:
            assert commands == {}
            assert controller._hit_streak == streaks
            return None
        assert commands == {command: 1}
        # The streak counts the hits served to the open row; a PRE zeroes it.
        bank = expected.bank_id
        streaks[bank] = {"RD": streaks[bank] + 1, "PRE": 0, "ACT": streaks[bank]}[command]
        assert controller._hit_streak == streaks
        return requests.index(expected)

    @settings(max_examples=400, deadline=None)
    @given(
        cap=st.sampled_from((1, 2, 4)),
        banks=st.lists(BANK_STATE, min_size=4, max_size=4),
        rank_release=st.sampled_from((0, 1)),
        queue=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=10),
    )
    def test_one_tick_serves_what_the_flat_rescan_names(
        self, cap, banks, rank_release, queue
    ):
        self.check(cap, banks, queue, rank_release)

    def test_empty_queue_issues_nothing(self):
        assert self.check(4, [OPEN(0)] * 4, []) is None

    def test_younger_hit_goes_before_an_older_conflict(self):
        banks = [OPEN(5), CLOSED, CLOSED, CLOSED]
        assert self.check(2, banks, [(0, 9), (0, 5)]) == 1

    def test_conflict_waits_for_a_queued_hit_below_the_cap(self):
        # The hit's column release has not passed, so nothing issues: the
        # older conflict may not close the row the hit is waiting for.
        banks = [(5, 0, 0, 0, 1), CLOSED, CLOSED, CLOSED]
        assert self.check(4, banks, [(0, 9), (0, 5)]) is None

    def test_fcfs_when_no_request_hits(self):
        assert self.check(4, [CLOSED] * 4, [(0, 5), (1, 6)]) == 0

    def test_cap_reached_serves_the_older_conflict(self):
        banks = [OPEN(5, streak=2), CLOSED, CLOSED, CLOSED]
        assert self.check(2, banks, [(0, 9), (0, 5)]) == 0

    def test_cap_only_binds_against_an_older_request_of_the_same_bank(self):
        # Bank 1's streak is at the cap, but the older request waits on
        # bank 0, so the hit still goes first.
        banks = [CLOSED, OPEN(7, streak=1), CLOSED, CLOSED]
        assert self.check(1, banks, [(0, 9), (1, 7)]) == 1

    def test_row_closure_resets_the_streak(self):
        """The PRE of a capped conflict zeroes its bank's streak and no
        other (``check`` compares every bank's streak), so the next row's
        hits may bypass older conflicts again."""
        banks = [OPEN(5, streak=1), OPEN(7, streak=1), CLOSED, CLOSED]
        assert self.check(1, banks, [(0, 9), (0, 5), (1, 7)]) == 0

    def test_non_positive_cap_is_rejected(self):
        device = DramDevice(ORG, ddr5_3200an())
        with pytest.raises(ValueError):
            MemoryController(device, mop_mapping(ORG), scheduler_cap=0)


class TestWakeHintAfterIssue:
    """``tick`` returns a real wake hint after an issued command."""

    def test_act_wakes_at_the_column_release(self):
        controller, device = make_controller()
        request = read_request(0x1000)
        controller.enqueue(request)
        issued, hint = controller.tick(0)
        assert device.command_counts["ACT"] == 1
        assert (issued, hint) == (True, 26)
        assert hint == device.next_rd[request.bank_id]

    def test_open_bank_with_only_hits_waits_for_the_column_release(self):
        """A legal precharge is no event while FR-FCFS would keep the row
        open for the queued hits, so the bank is not ready now."""
        controller, device = make_controller()
        request = read_request(0x1000)
        controller.enqueue(request)
        bank = request.bank_id
        device.open_rows[bank] = request.dram.row
        device.next_pre[bank] = 0
        device.next_rd[bank] = 100
        assert controller._demand_ready_cycle(50) == 100
        assert not controller._demand_ready_now


#: Device commands the wake-contract log records, by method name.
COMMANDS = ("activate", "precharge", "read", "write", "refresh", "rfm", "victim_refresh")

#: One run of same-row requests: (bank, row, length, is_write).
_RUN = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(1, 8), st.booleans()
)
#: Bursts of runs that arrive together, after a gap that is sometimes
#: longer than tREFI (6240 cycles).
BURSTS = st.lists(
    st.tuples(
        st.sampled_from((0, 1, 3, 10, 40, 200, 8_000)),
        st.lists(_RUN, min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=24,
)
#: Two rows of bank 0 read in turn, 100 cycles apart: 32 ACTs, enough for
#: Chronus at N_RH=20 to back off, which random bursts almost never reach.
HAMMER = [(100, [(0, row % 2, 1, False)]) for row in range(32)]
#: Reads drain to zero with writes queued: the queue flips on an issue.
FLIP_ON_ISSUE = [(0, [(0, 0, 2, False), (1, 0, 2, True)])]
#: A write to a busy bank pushes the write queue to ``write_drain_high``
#: while reads wait on bank 0 and bank 2's queued writes could issue: the
#: queue flips on an enqueue.
FLIP_ON_ENQUEUE = [
    (0, [(0, 0, 1, False), (0, 1, 1, False), (0, 2, 1, False), (2, 0, 4, True)]),
    (60, [(0, 3, 1, True)]),
]
#: Hits to two banks of different bank groups, whose column releases meet.
TWO_BANKS = [(0, [(0, 0, 2, False), (2, 0, 2, False)])]
#: Three writes drain the write queue to ``write_drain_low`` while a read
#: waits on a conflict; a later write must meet the drain flag that the
#: every-cycle copy stored on the cycle after the last write.
DRAIN_SETTLES = [(0, [(0, 0, 5, True), (0, 1, 1, False)]), (60, [(0, 0, 1, True)])]


def logged_controller(mechanism):
    """A lone controller with ``mechanism`` at N_RH=20 and small queues,
    plus the (cycle, command, target) log of every command it issues."""
    setup = build_mechanism(mechanism, nrh=20, num_banks=ORG.total_banks)
    device = DramDevice(
        ORG, ddr5_3200an(prac=setup.use_prac_timings), mitigation=setup.on_die
    )
    controller = MemoryController(
        device, mop_mapping(ORG), mechanism=setup.controller,
        read_queue_size=6, write_queue_size=8,
        write_drain_high=5, write_drain_low=2,
    )
    log = []
    for name in COMMANDS:
        def logged(target, *args, _name=name, _issue=getattr(device, name)):
            log.append((args[-1], _name, target if isinstance(target, int) else tuple(target)))
            return _issue(target, *args)

        setattr(device, name, logged)
    return controller, log


def scheduled_requests(mapping, bursts):
    """The requests of ``bursts`` in arrival order, and the last arrival."""
    requests, cycle = [], 0
    for gap, runs in bursts:
        cycle += gap
        for bank, row, length, is_write in runs:
            for _ in range(length):
                address = mapping.encode(
                    DramAddress(0, 0, bank // 2, bank % 2, row, len(requests) % 32)
                )
                requests.append(MemoryRequest(
                    address=address,
                    request_type=RequestType.WRITE if is_write else RequestType.READ,
                    core_id=0, arrival_cycle=cycle,
                ))
    return requests, cycle


def drive(controller, requests, end, strict):
    """Run ``controller`` on ``requests`` up to ``end``; return its drains.

    Requests enqueue in order once they have arrived; a refused one holds
    back those behind it.  ``strict`` ticks every cycle and drops the
    demand wake-hint cache before each tick, so the reference relies on no
    cached value either (the cache only ever errs early, so dropping it
    must change nothing).  Otherwise the controller is ticked only at its
    returned wake hint and at cycles with an enqueue (the router's gating),
    time jumps to the next of those, and a refused enqueue is retried on the
    cycle after an issued command (queue space only frees on an issue).
    """
    position = {id(request): index for index, request in enumerate(requests)}
    drains = []
    queued = wake = cycle = 0
    while cycle < end:
        enqueued = refused = False
        while queued < len(requests) and requests[queued].arrival_cycle <= cycle:
            if not controller.enqueue(requests[queued]):
                refused = True
                break
            enqueued = True
            queued += 1
        issued = False
        if strict:
            controller._demand_hint = None
        if strict or enqueued or cycle >= wake:
            issued, wake = controller.tick(cycle)
            assert wake > cycle, "a wake hint must lie in the future"
        for request in controller.drain_completed():
            drains.append((cycle, position[id(request)], request.completion_cycle))
        if strict:
            cycle += 1
            continue
        target = wake
        if refused:
            if issued:
                target = cycle + 1
        elif queued < len(requests) and requests[queued].arrival_cycle < target:
            target = requests[queued].arrival_cycle
        cycle = target
    return drains


class TestWakeContract:
    """Ticking a controller only at its wake hints changes nothing.

    A differential test of the hint contract on a lone controller: one copy
    is ticked every cycle, the other only where its hints and the enqueue
    schedule say, and both must issue the same commands on the same cycles
    and complete the same requests.  The schedules mix reads and writes over
    a few banks and rows, push the write queue past ``write_drain_high``,
    queue same-row runs longer than the cap of 4 behind older conflicts,
    overflow the queues and idle past tREFI.  PRFM runs the mechanism scan;
    after the ``HAMMER`` prefix Chronus at N_RH=20 backs off, so the back-off
    probe runs too.
    """

    @pytest.mark.parametrize("mechanism", ("PRFM", "Chronus"))
    @settings(max_examples=60, deadline=None)
    @given(hammer=st.booleans(), bursts=BURSTS)
    @example(hammer=False, bursts=FLIP_ON_ISSUE)
    @example(hammer=False, bursts=FLIP_ON_ENQUEUE)
    @example(hammer=False, bursts=TWO_BANKS)
    @example(hammer=False, bursts=DRAIN_SETTLES)
    @example(hammer=True, bursts=[(8_000, [(1, 0, 1, False)])])
    def test_hint_driven_ticks_match_every_cycle(self, mechanism, hammer, bursts):
        schedule = (HAMMER if hammer else []) + bursts
        runs = []
        for strict in (True, False):
            controller, log = logged_controller(mechanism)
            requests, last = scheduled_requests(controller.mapping, schedule)
            drains = drive(controller, requests, last + 12_000, strict)
            runs.append((log, drains))
        (strict_log, strict_drains), (event_log, event_drains) = runs
        assert event_log == strict_log
        assert event_drains == strict_drains
