"""Tests for the mitigation base classes and the preventive refresh queue."""

import pytest

from repro.core.mitigation import (
    DEFAULT_BLAST_RADIUS,
    ControllerMitigation,
    MitigationMechanism,
    MitigationStats,
    NoMitigation,
    PreventiveRefresh,
)


class QueueOnly(ControllerMitigation):
    """Concrete controller mechanism used to exercise the queue helpers."""

    name = "queue-only"

    def on_activate(self, bank_id, row, cycle):
        self.stats.tracked_activations += 1


class TestPreventiveRefreshQueue:
    def test_queue_and_pop_fifo(self):
        mech = QueueOnly(nrh=100)
        mech.queue_refresh(PreventiveRefresh(bank_id=1, aggressor_row=10, num_rows=4))
        mech.queue_refresh(PreventiveRefresh(bank_id=1, aggressor_row=20, num_rows=4))
        assert mech.pending_refresh(1).aggressor_row == 10
        assert mech.pop_refresh(1).aggressor_row == 10
        assert mech.pop_refresh(1).aggressor_row == 20
        assert mech.pop_refresh(1) is None

    def test_banks_with_pending(self):
        mech = QueueOnly(nrh=100)
        mech.queue_refresh(PreventiveRefresh(bank_id=3, aggressor_row=1, num_rows=2))
        assert mech.banks_with_pending_refreshes() == [3]
        mech.pop_refresh(3)
        assert mech.banks_with_pending_refreshes() == []

    def test_total_pending_rows(self):
        mech = QueueOnly(nrh=100)
        mech.queue_refresh(PreventiveRefresh(bank_id=0, aggressor_row=1, num_rows=4))
        mech.queue_refresh(PreventiveRefresh(bank_id=1, aggressor_row=2, num_rows=1))
        assert mech.total_pending_rows() == 5
        assert mech.stats.preventive_refresh_rows == 5

    def test_default_rfm_interface(self):
        mech = QueueOnly(nrh=100)
        assert not mech.rfm_pending_banks()
        mech.acknowledge_rfm(0, 10)  # no-op by default


class TestBaseValidation:
    def test_invalid_nrh(self):
        with pytest.raises(ValueError):
            QueueOnly(nrh=0)

    def test_victim_rows_per_aggressor(self):
        """Both neighbours within the paper's blast radius of 2: four rows."""
        assert DEFAULT_BLAST_RADIUS == 2
        assert QueueOnly(nrh=10).victim_rows_per_aggressor == 4
        assert MitigationMechanism.victim_rows_per_aggressor == 4

    def test_default_storage_is_empty(self):
        assert QueueOnly(nrh=10).storage_overhead_bits(64, 1000) == {}

    def test_stats_as_dict(self):
        stats = MitigationStats(backoffs=2, rfm_commands=3)
        d = stats.as_dict()
        assert d["backoffs"] == 2 and d["rfm_commands"] == 3


class TestNoMitigation:
    def test_tracks_activations_only(self):
        none = NoMitigation()
        none.on_activate(0, 1, 0)
        assert none.stats.tracked_activations == 1
        assert none.total_pending_rows() == 0
        assert none.act_energy_multiplier == 1.0
