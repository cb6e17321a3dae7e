"""Tests for the FR-FCFS + Cap scheduler."""

import pytest

from repro.controller.address_mapping import mop_mapping
from repro.controller.request import MemoryRequest, RequestType
from repro.controller.scheduler import FrFcfsCapScheduler
from repro.dram.device import DramDevice
from repro.dram.organization import DramOrganization
from repro.dram.timing import ddr5_3200an


ORG = DramOrganization(ranks=1, bankgroups=2, banks_per_group=2, rows=256, columns=32)


def make_request(bank_id: int, row: int, arrival: int = 0) -> MemoryRequest:
    request = MemoryRequest(
        address=0, request_type=RequestType.READ, core_id=0, arrival_cycle=arrival
    )
    mapping = mop_mapping(ORG)
    request.dram = mapping.decode(0).__class__(
        channel=0, rank=0, bankgroup=bank_id // 2, bank=bank_id % 2, row=row, column=0
    )
    request.bank_id = bank_id
    return request


@pytest.fixture
def device():
    return DramDevice(ORG, ddr5_3200an())


class TestChoose:
    def test_empty_queue(self, device):
        scheduler = FrFcfsCapScheduler()
        assert scheduler.choose([], device) is None

    def test_prefers_row_hit_over_older_conflict(self, device):
        scheduler = FrFcfsCapScheduler()
        device.activate(0, 5, 0)
        older_conflict = make_request(0, 9)
        younger_hit = make_request(0, 5)
        chosen = scheduler.choose([older_conflict, younger_hit], device)
        assert chosen is younger_hit

    def test_fcfs_when_no_hits(self, device):
        scheduler = FrFcfsCapScheduler()
        first = make_request(0, 5)
        second = make_request(1, 6)
        assert scheduler.choose([second, first], device) is first

    def test_cap_limits_reordering(self, device):
        scheduler = FrFcfsCapScheduler(cap=2)
        device.activate(0, 5, 0)
        older_conflict = make_request(0, 9)
        hit = make_request(0, 5)
        # Two hits already bypassed the conflict: the cap is exhausted.
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        assert scheduler.cap_reached(0)
        chosen = scheduler.choose([older_conflict, hit], device)
        assert chosen is older_conflict

    def test_conflict_resets_streak(self, device):
        scheduler = FrFcfsCapScheduler(cap=2)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        scheduler.on_scheduled(make_request(0, 9), was_row_hit=False)
        assert scheduler.hit_streak(0) == 0
        assert not scheduler.cap_reached(0)

    def test_hit_in_other_bank_not_blocked_by_cap(self, device):
        scheduler = FrFcfsCapScheduler(cap=1)
        device.activate(1, 7, 0)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        older_other_bank = make_request(0, 9)
        hit = make_request(1, 7)
        # The older request targets a different bank, so the hit proceeds.
        assert scheduler.choose([older_other_bank, hit], device) is hit

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            FrFcfsCapScheduler(cap=0)

    def test_reset(self):
        scheduler = FrFcfsCapScheduler(cap=1)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        scheduler.reset()
        assert scheduler.hit_streak(0) == 0


class TestRowClosureResetsStreak:
    """The reordering budget belongs to the open row, not the bank.

    A streak accumulated against a row that was closed by a precharge (or a
    REF / RFM, which require the row to already be closed) must not throttle
    the first hits to a freshly opened row.
    """

    def test_on_row_closed_resets_streak(self, device):
        scheduler = FrFcfsCapScheduler(cap=2)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        assert scheduler.cap_reached(0)
        scheduler.on_row_closed(0)
        assert scheduler.hit_streak(0) == 0
        assert not scheduler.cap_reached(0)

    def test_other_banks_unaffected(self, device):
        scheduler = FrFcfsCapScheduler(cap=1)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        scheduler.on_scheduled(make_request(1, 7), was_row_hit=True)
        scheduler.on_row_closed(0)
        assert scheduler.hit_streak(0) == 0
        assert scheduler.hit_streak(1) == 1

    def test_fresh_row_hits_not_throttled_after_closure(self, device):
        """After a closure, a hit may again bypass an older conflict."""
        scheduler = FrFcfsCapScheduler(cap=1)
        device.activate(0, 5, 0)
        scheduler.on_scheduled(make_request(0, 5), was_row_hit=True)
        assert scheduler.cap_reached(0)
        older_conflict = make_request(0, 9)
        hit = make_request(0, 5)
        # Cap exhausted: the older conflict wins ...
        assert scheduler.choose([older_conflict, hit], device) is older_conflict
        # ... until the row closes, which hands the fresh row a fresh budget.
        scheduler.on_row_closed(0)
        assert scheduler.choose([older_conflict, hit], device) is hit

    def test_bucketed_choose_matches_flat_choose(self, device):
        """choose_from_buckets picks exactly what the flat scan picks."""
        flat = FrFcfsCapScheduler(cap=2)
        bucketed = FrFcfsCapScheduler(cap=2)
        device.activate(0, 5, 0)
        requests = [
            make_request(0, 9),   # oldest: conflict on bank 0
            make_request(1, 3),   # bank 1 (idle)
            make_request(0, 5),   # hit on bank 0
            make_request(0, 5),   # younger hit on bank 0
        ]
        buckets = {}
        for request in requests:
            buckets.setdefault(request.bank_id, []).append(request)
        for streak in range(4):
            assert flat.choose(requests, device) is bucketed.choose_from_buckets(
                buckets, device.open_rows
            )
            flat.on_scheduled(make_request(0, 5), was_row_hit=True)
            bucketed.on_scheduled(make_request(0, 5), was_row_hit=True)
