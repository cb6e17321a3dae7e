"""Tests for the DRAM device (rank constraints, REF/RFM, mitigation hooks)."""

from typing import List

import pytest

from repro.core.mitigation import OnDieMitigation
from repro.dram import TimingViolation
from repro.dram.device import DramDevice
from repro.dram.organization import DramOrganization
from repro.dram.timing import ddr5_3200an


SMALL_ORG = DramOrganization(ranks=2, bankgroups=2, banks_per_group=2, rows=1024, columns=32)


class RecordingMitigation(OnDieMitigation):
    """Minimal on-die mechanism that records every hook invocation."""

    name = "recorder"

    def __init__(self):
        super().__init__(nrh=1000)
        self.activations: List[tuple] = []
        self.precharges: List[tuple] = []
        self.refreshes: List[tuple] = []
        self.rfms: List[tuple] = []
        self._assert = False

    def on_activate(self, bank_id, row, cycle):
        self.activations.append((bank_id, row, cycle))

    def on_precharge(self, bank_id, row, cycle):
        self.precharges.append((bank_id, row, cycle))

    def on_periodic_refresh(self, bank_ids, cycle):
        self.refreshes.append((tuple(bank_ids), cycle))

    def backoff_asserted(self):
        return self._assert

    def on_rfm(self, bank_ids, cycle):
        self.rfms.append((tuple(bank_ids), cycle))
        self._assert = False
        return 4 * len(bank_ids)


@pytest.fixture
def device():
    return DramDevice(SMALL_ORG, ddr5_3200an())


@pytest.fixture
def device_with_mech():
    mech = RecordingMitigation()
    return DramDevice(SMALL_ORG, ddr5_3200an(), mitigation=mech), mech


class TestGeometryHelpers:
    def test_rank_of_bank(self, device):
        assert device.rank_of_bank(0) == 0
        assert device.rank_of_bank(SMALL_ORG.banks_per_rank) == 1

    def test_banks_in_rank(self, device):
        banks = device.banks_in_rank(1)
        assert len(banks) == SMALL_ORG.banks_per_rank
        assert min(banks) == SMALL_ORG.banks_per_rank

    def test_rejects_controller_side_mechanism(self):
        from repro.core.mitigation import NoMitigation

        with pytest.raises(ValueError):
            DramDevice(SMALL_ORG, ddr5_3200an(), mitigation=NoMitigation())


class TestRankLevelConstraints:
    def test_trrd_between_acts_same_rank(self, device):
        device.activate(0, 1, 0)
        assert not device.can_activate(1, device.timing.tRRD - 1)
        assert device.can_activate(1, device.timing.tRRD)

    def test_other_rank_unaffected_by_trrd(self, device):
        device.activate(0, 1, 0)
        other = SMALL_ORG.banks_per_rank
        assert device.can_activate(other, 1)

    def test_tfaw_limits_burst_of_activations(self):
        # Use a stretched tFAW so the four-activate window (and not tRRD) is
        # the binding constraint for the fifth activation.  The organization
        # needs at least five banks in one rank.
        org = DramOrganization(ranks=1, bankgroups=4, banks_per_group=2,
                               rows=1024, columns=32)
        timing = ddr5_3200an().with_overrides(tFAW=200)
        device = DramDevice(org, timing)
        cycle = 0
        for bank in range(4):
            device.activate(bank, 1, cycle)
            cycle += timing.tRRD
        fifth_bank = 4
        assert not device.can_activate(fifth_bank, cycle)
        assert not device.can_activate(fifth_bank, 199)
        assert device.can_activate(fifth_bank, 200)

    def test_activate_raises_on_rank_violation(self, device):
        device.activate(0, 1, 0)
        with pytest.raises(TimingViolation):
            device.activate(1, 1, 0)


class TestCommandsAndCounts:
    def test_read_write_counts(self, device):
        t = device.timing
        device.activate(0, 5, 0)
        device.read(0, t.tRCD)
        device.write(0, t.tRCD + t.tCCD)
        device.precharge(0, t.tRCD + t.tCCD + t.tCWL + t.tBL + t.tWR)
        counts = device.command_counts
        assert counts["ACT"] == 1
        assert counts["RD"] == 1
        assert counts["WR"] == 1
        assert counts["PRE"] == 1
        assert device.total_activations() == 1

    def test_open_row(self, device):
        assert device.open_row(0) is None
        device.activate(0, 9, 0)
        assert device.open_row(0) == 9


class TestRefreshAndRfm:
    def test_refresh_blocks_all_banks_of_rank(self, device):
        device.refresh(0, 0)
        for bank_id in device.banks_in_rank(0):
            assert not device.can_activate(bank_id, device.timing.tRFC - 1)
            assert device.can_activate(bank_id, device.timing.tRFC)
        # The other rank is unaffected.
        assert device.can_activate(SMALL_ORG.banks_per_rank, 1)

    def test_refresh_requires_idle_banks(self, device):
        device.activate(0, 1, 0)
        assert not device.can_refresh(0, 10)
        with pytest.raises(TimingViolation):
            device.refresh(0, 10)

    def test_rfm_blocks_target_banks(self, device):
        device.rfm([0, 1], 0)
        assert not device.can_activate(0, device.timing.tRFM - 1)
        assert device.can_activate(0, device.timing.tRFM)
        assert device.command_counts["RFM"] == 1

    def test_victim_refresh_counts_rows(self, device):
        device.victim_refresh(2, num_rows=4, cycle=0)
        assert device.command_counts["VRR"] == 4


class TestVictimRefreshLegality:
    """A VRR is an internal ACT+PRE: it needs a bank that could take an ACT."""

    def test_vrr_one_cycle_after_precharge_raises(self, device):
        t = device.timing
        device.activate(0, 1, 0)
        device.precharge(0, t.tRAS)
        # Precharged, but the bank cannot ACT before max(tRAS + tRP, tRC).
        assert not device.can_activate(0, t.tRAS + 1)
        with pytest.raises(TimingViolation, match="VRR at cycle"):
            device.victim_refresh(0, num_rows=1, cycle=t.tRAS + 1)
        assert device.command_counts["VRR"] == 0

    def test_vrr_during_refresh_raises(self, device):
        device.refresh(0, 0)
        with pytest.raises(TimingViolation, match="next_act"):
            device.victim_refresh(0, num_rows=1, cycle=1)
        assert device.next_act[0] == device.timing.tRFC

    def test_vrr_at_release_blocks_for_rows_times_trc(self, device):
        t = device.timing
        device.refresh(0, 0)
        done = device.victim_refresh(0, num_rows=3, cycle=t.tRFC)
        assert done == t.tRFC + 3 * t.tRC
        assert device.next_act[0] == done
        assert not device.can_activate(0, done - 1)
        assert device.can_activate(0, done)


class TestMitigationHooks:
    def test_activate_and_precharge_hooks(self, device_with_mech):
        device, mech = device_with_mech
        device.activate(0, 7, 0)
        device.precharge(0, device.timing.tRAS)
        assert mech.activations == [(0, 7, 0)]
        assert mech.precharges == [(0, 7, device.timing.tRAS)]

    def test_refresh_hook_receives_rank_banks(self, device_with_mech):
        device, mech = device_with_mech
        device.refresh(1, 0)
        assert len(mech.refreshes) == 1
        banks, cycle = mech.refreshes[0]
        assert set(banks) == set(device.banks_in_rank(1))

    def test_rfm_hook_and_victim_accounting(self, device_with_mech):
        device, mech = device_with_mech
        refreshed = device.rfm([0, 1, 2], 0)
        assert refreshed == 12
        assert device.internal_victim_rows == 12
        assert len(mech.rfms) == 1

    def test_backoff_propagation(self, device_with_mech):
        device, mech = device_with_mech
        assert not device.backoff_asserted()
        mech._assert = True
        assert device.backoff_asserted()
        assert device.wants_more_rfm()
        device.rfm(device.banks_in_rank(0), 0)
        assert not device.backoff_asserted()

    def test_no_mitigation_no_backoff(self, device):
        assert not device.backoff_asserted()
        assert not device.wants_more_rfm()
        assert device.rfm([0], 0) == 0
