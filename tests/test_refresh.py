"""Tests for the periodic refresh scheduler."""

import pytest

from repro.dram.refresh import RefreshScheduler
from repro.dram.timing import ddr5_3200an


@pytest.fixture
def scheduler():
    return RefreshScheduler(num_ranks=2, timing=ddr5_3200an())


class TestRefreshScheduler:
    def test_nothing_pending_initially(self, scheduler):
        scheduler.tick(0)
        assert scheduler.pending_refreshes(0) == 0
        assert scheduler.ranks_needing_refresh() == ()

    def test_pending_after_trefi(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(trefi)
        assert scheduler.pending_refreshes(0) == 1
        assert scheduler.pending_refreshes(1) == 1
        assert set(scheduler.ranks_needing_refresh()) == {0, 1}

    def test_multiple_intervals_accumulate(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(3 * trefi)
        assert scheduler.pending_refreshes(0) == 3

    def test_urgent_after_postpone_budget(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(3 * trefi)
        assert scheduler.urgent_ranks() == ()
        scheduler.tick(4 * trefi)
        assert scheduler.urgent_ranks() == (0, 1)

    def test_issue_decrements_pending(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(2 * trefi)
        scheduler.refresh_issued(0)
        assert scheduler.pending_refreshes(0) == 1
        assert scheduler.pending_refreshes(1) == 2

    def test_issue_without_pending_raises(self, scheduler):
        with pytest.raises(RuntimeError):
            scheduler.refresh_issued(0)

    def test_invalid_rank_count(self):
        with pytest.raises(ValueError):
            RefreshScheduler(num_ranks=0, timing=ddr5_3200an())

    def test_tick_is_idempotent_for_same_cycle(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(trefi)
        scheduler.tick(trefi)
        assert scheduler.pending_refreshes(0) == 1


class TestLazyAccrual:
    """The hint-driven accrual pinned against the eager implementation."""

    def test_next_due_cycle_starts_at_trefi(self, scheduler):
        assert scheduler.next_due_cycle() == scheduler.timing.tREFI

    def test_next_due_cycle_advances_past_tick(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(trefi)
        assert scheduler.next_due_cycle() == 2 * trefi
        scheduler.tick(5 * trefi + 17)
        assert scheduler.next_due_cycle() == 6 * trefi

    def test_skipping_ticks_accrues_identically(self):
        """One big tick accrues exactly what per-cycle ticking accrues."""
        timing = ddr5_3200an()
        eager = RefreshScheduler(num_ranks=2, timing=timing)
        lazy = RefreshScheduler(num_ranks=2, timing=timing)
        horizon = 4 * timing.tREFI + 123
        for cycle in range(0, horizon, 97):
            eager.tick(cycle)
        lazy.tick(horizon - 1)
        eager.tick(horizon - 1)
        for rank in range(2):
            assert eager.pending_refreshes(rank) == lazy.pending_refreshes(rank)
        assert eager.next_due_cycle() == lazy.next_due_cycle()

    def test_ranks_needing_refresh_tuple_is_cached(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(trefi)
        first = scheduler.ranks_needing_refresh()
        assert first == (0, 1)
        # No accrual/issue between calls: the same tuple object is returned
        # (the hot path calls this every tick).
        assert scheduler.ranks_needing_refresh() is first

    def test_cache_invalidated_on_issue_and_accrual(self, scheduler):
        trefi = scheduler.timing.tREFI
        scheduler.tick(trefi)
        assert scheduler.ranks_needing_refresh() == (0, 1)
        scheduler.refresh_issued(0)
        assert scheduler.ranks_needing_refresh() == (1,)
        scheduler.refresh_issued(1)
        assert scheduler.ranks_needing_refresh() == ()
        scheduler.tick(2 * trefi)
        assert scheduler.ranks_needing_refresh() == (0, 1)
