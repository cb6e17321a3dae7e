"""Tests for the per-bank state machine and timing enforcement.

Every test drives bank 0 of a :class:`DramDevice`, whose register lists
hold the bank state.
"""

import pytest

from repro.dram.device import DramDevice, TimingViolation
from repro.dram.organization import DramOrganization
from repro.dram.timing import ddr5_3200an

ORG = DramOrganization(ranks=1, bankgroups=2, banks_per_group=2, rows=1024, columns=32)
BANK = 0


@pytest.fixture
def device():
    return DramDevice(ORG, ddr5_3200an())


@pytest.fixture
def prac_device():
    return DramDevice(ORG, ddr5_3200an(prac=True))


class TestActivate:
    def test_initially_idle(self, device):
        assert device.open_rows[BANK] == -1
        assert device.open_row(BANK) is None
        assert device.can_activate(BANK, 0)

    def test_activate_opens_row(self, device):
        device.activate(BANK, row=42, cycle=0)
        assert device.open_rows[BANK] == 42
        assert device.open_row(BANK) == 42

    def test_activate_when_open_rejected(self, device):
        device.activate(BANK, 10, 0)
        assert not device.can_activate(BANK, 1000)
        with pytest.raises(TimingViolation):
            device.activate(BANK, 11, 1000)

    def test_activate_counts(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        device.precharge(BANK, t.tRAS)
        device.activate(BANK, 2, max(t.tRAS + t.tRP, t.tRC))
        assert device.command_counts["ACT"] == 2

    def test_trc_between_activations(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        device.precharge(BANK, t.tRAS)
        # The next ACT must respect both tRAS+tRP and tRC.
        earliest = max(t.tRC, t.tRAS + t.tRP)
        assert not device.can_activate(BANK, earliest - 1)
        assert device.can_activate(BANK, earliest)


class TestPrecharge:
    def test_precharge_before_tras_rejected(self, device):
        device.activate(BANK, 1, 0)
        assert not device.can_precharge(BANK, device.timing.tRAS - 1)
        with pytest.raises(TimingViolation):
            device.precharge(BANK, device.timing.tRAS - 1)

    def test_precharge_returns_closed_row(self, device):
        device.activate(BANK, 7, 0)
        assert device.precharge(BANK, device.timing.tRAS) == 7
        assert device.open_rows[BANK] == -1
        assert device.open_row(BANK) is None

    def test_precharge_idle_rejected(self, device):
        with pytest.raises(TimingViolation):
            device.precharge(BANK, 100)

    def test_act_after_precharge_waits_trp(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        device.precharge(BANK, t.tRAS)
        assert not device.can_activate(BANK, t.tRAS + t.tRP - 1)
        assert device.can_activate(BANK, max(t.tRAS + t.tRP, t.tRC))


class TestReadWrite:
    def test_read_before_trcd_rejected(self, device):
        device.activate(BANK, 1, 0)
        assert not device.can_read(BANK, device.timing.tRCD - 1)
        with pytest.raises(TimingViolation):
            device.read(BANK, device.timing.tRCD - 1)

    def test_read_returns_data_ready_cycle(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        ready = device.read(BANK, t.tRCD)
        assert ready == t.tRCD + t.tCL + t.tBL

    def test_read_delays_precharge_by_trtp(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        read_cycle = t.tRAS  # read late so tRTP dominates
        device.read(BANK, read_cycle)
        assert not device.can_precharge(BANK, read_cycle + t.tRTP - 1)
        assert device.can_precharge(BANK, read_cycle + t.tRTP)

    def test_write_delays_precharge_by_twr(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        done = device.write(BANK, t.tRCD)
        assert done == t.tRCD + t.tCWL + t.tBL
        assert not device.can_precharge(BANK, done + t.tWR - 1)
        assert device.can_precharge(BANK, max(done + t.tWR, t.tRAS))

    def test_column_to_column_delay(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        device.read(BANK, t.tRCD)
        assert not device.can_read(BANK, t.tRCD + t.tCCD - 1)
        assert device.can_read(BANK, t.tRCD + t.tCCD)

    def test_read_idle_rejected(self, device):
        with pytest.raises(TimingViolation):
            device.read(BANK, 100)

    def test_counts(self, device):
        t = device.timing
        device.activate(BANK, 1, 0)
        device.read(BANK, t.tRCD)
        device.write(BANK, t.tRCD + t.tCCD)
        assert device.command_counts["RD"] == 1
        assert device.command_counts["WR"] == 1


class TestPracTimingsChangeBehaviour:
    def test_prac_allows_earlier_precharge(self, device, prac_device):
        """With PRAC, tRAS shrinks so an idle row closes sooner."""
        device.activate(BANK, 1, 0)
        prac_device.activate(BANK, 1, 0)
        prac_tras = prac_device.timing.tRAS
        assert prac_tras < device.timing.tRAS
        assert prac_device.can_precharge(BANK, prac_tras)
        assert not device.can_precharge(BANK, prac_tras)

    def test_prac_delays_reactivation(self, device, prac_device):
        """With PRAC, tRP grows so a row conflict costs more."""
        for d in (device, prac_device):
            d.activate(BANK, 1, 0)
            d.precharge(BANK, d.timing.tRAS)
        assert prac_device.next_act[BANK] > device.next_act[BANK]


class TestBlockAndVictimRefresh:
    """A one-bank RFM blocks the bank for tRFM; a VRR for rows x tRC."""

    def test_block_requires_idle(self, device):
        device.activate(BANK, 1, 0)
        with pytest.raises(TimingViolation):
            device.rfm([BANK], 10)

    def test_block_delays_activation(self, device):
        t_rfm = device.timing.tRFM
        device.rfm([BANK], 0)
        assert not device.can_activate(BANK, t_rfm - 1)
        assert device.can_activate(BANK, t_rfm)

    def test_victim_refresh_blocks_for_rows_times_trc(self, device):
        t = device.timing
        done = device.victim_refresh(BANK, num_rows=4, cycle=0)
        assert done == 4 * t.tRC
        assert not device.can_activate(BANK, done - 1)
        assert device.can_activate(BANK, done)
        assert device.command_counts["VRR"] == 4

    def test_victim_refresh_requires_idle(self, device):
        device.activate(BANK, 1, 0)
        with pytest.raises(TimingViolation):
            device.victim_refresh(BANK, num_rows=1, cycle=10)
