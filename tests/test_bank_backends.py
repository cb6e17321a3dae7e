"""The device's bank registers vs the attribute-per-register reference bank.

:class:`~repro.dram.device.DramDevice` keeps every bank's timing registers
in plain lists indexed by flat bank id.  Bank 0 of a device must be
*observably identical* to the simple reference model in
``tests/bank_reference.py``: same legality decisions, same
:class:`TimingViolation` classes and messages, same register trajectories,
same command counts.  Three layers pin that:

1. randomized command streams (Hypothesis) driven through bank 0 of a
   device and a reference bank, comparing every observable -- including
   raised violations -- after every command;
2. direct illegal-command coverage: every command class raises
   :class:`TimingViolation` through the device, with the exact reference
   message, for both its state violation and its too-early timing
   violation;
3. command counts identical to the reference stats after a mixed legal
   stream.

One bank cannot reach the rank limits with a legal ACT: same-bank ACTs are
at least tRC apart (76 cycles), more than tRRD (8), and four of them span
at least 3 x tRC, more than tFAW (32).  The device checks the rank before
the bank, though, so an ACT the bank refuses within tRRD of the last ACT
raises the rank's message; :func:`on_reference` models that one rule.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.device import DramDevice, TimingViolation
from repro.dram.organization import DramOrganization
from repro.dram.timing import ddr5_3200an

from bank_reference import ObjectBank

TIMING = ddr5_3200an()
#: One rank of four banks; the tests drive bank 0.
ORG = DramOrganization(ranks=1, bankgroups=2, banks_per_group=2, rows=1024, columns=32)


def make_pair():
    """A reference bank and a device whose bank 0 it models."""
    return ObjectBank(0, TIMING), DramDevice(ORG, TIMING)


def reference_observables(bank, cycle):
    """Every externally visible property of the reference bank at ``cycle``."""
    stats = bank.stats
    return {
        "open_row": bank.open_row,
        "next_act": bank.ready_cycle_for_activate(),
        "next_pre": bank.ready_cycle_for_precharge(),
        "next_rd": bank.ready_cycle_for_read(),
        "next_wr": bank.ready_cycle_for_write(),
        "can_activate": bank.can_activate(cycle),
        "can_precharge": bank.can_precharge(cycle),
        "can_read": bank.can_read(cycle),
        "can_write": bank.can_write(cycle),
        "can_rfm": bank.can_activate(cycle),
        "counts": (
            stats.activations, stats.precharges, stats.reads, stats.writes,
            stats.victim_refreshes,
        ),
    }


def device_observables(device, cycle):
    """The same properties, read from bank 0 of ``device``."""
    counts = device.command_counts
    return {
        "open_row": device.open_row(0),
        "next_act": device.next_act[0],
        "next_pre": device.next_pre[0],
        "next_rd": device.next_rd[0],
        "next_wr": device.next_wr[0],
        "can_activate": device.can_activate(0, cycle),
        "can_precharge": device.can_precharge(0, cycle),
        "can_read": device.can_read(0, cycle),
        "can_write": device.can_write(0, cycle),
        "can_rfm": device.can_rfm([0], cycle),
        "counts": (
            counts["ACT"], counts["PRE"], counts["RD"], counts["WR"], counts["VRR"],
        ),
    }


def registers(device):
    """The device's five register lists."""
    return (
        device.open_rows, device.next_act, device.next_pre, device.next_rd,
        device.next_wr,
    )


def on_reference(bank, op, row, cycle):
    """Run one command on the reference; ``(outcome, violation or None)``."""
    try:
        if op == "act":
            last = bank.last_act_cycle
            if last is not None and cycle < last + TIMING.tRRD:
                raise TimingViolation(
                    f"rank 0: ACT at cycle {cycle} violates tRRD/tFAW"
                )
            return bank.activate(row, cycle), None
        if op == "pre":
            return bank.precharge(cycle), None
        if op == "rd":
            return bank.read(cycle), None
        if op == "wr":
            return bank.write(cycle), None
        if op == "block":
            return bank.block(cycle, TIMING.tRFM), None
        if op == "ref":
            return bank.block(cycle, TIMING.tRFC, "REF"), None
        return bank.victim_refresh(cycle, rows=1 + row % 3), None
    except TimingViolation as violation:
        return "violation", str(violation)


def on_device(device, op, row, cycle):
    """Run the same command on bank 0 of ``device``."""
    try:
        if op == "act":
            return device.activate(0, row, cycle), None
        if op == "pre":
            return device.precharge(0, cycle), None
        if op == "rd":
            return device.read(0, cycle), None
        if op == "wr":
            return device.write(0, cycle), None
        if op == "block":
            # A one-bank RFM; without an on-die mechanism it refreshes no rows.
            assert device.rfm([0], cycle) == 0
            return None, None
        if op == "ref":
            # Bank 0's rank-mates see only REFs, so bank 0 decides legality.
            return device.refresh(0, cycle), None
        return device.victim_refresh(0, 1 + row % 3, cycle), None
    except TimingViolation as violation:
        return "violation", str(violation)


#: Command streams mixing every command class; ``gap`` values straddle the
#: DDR5 timing constants so both legal and too-early issues occur.
command_streams = st.lists(
    st.tuples(
        st.sampled_from(("act", "pre", "rd", "wr", "block", "ref", "vrr")),
        st.integers(0, 7),       # row operand
        st.integers(0, 40),      # cycle gap before the command
    ),
    min_size=1,
    max_size=200,
)


class TestDifferentialStreams:
    """Hypothesis: identical trajectories, violations and counts."""

    @settings(max_examples=60, deadline=None)
    @given(stream=command_streams)
    def test_command_stream_equivalence(self, stream):
        reference, device = make_pair()
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            expected = on_reference(reference, op, row, cycle)
            # Same return value, or the same violation with the same text.
            assert on_device(device, op, row, cycle) == expected
            assert device_observables(device, cycle) == reference_observables(
                reference, cycle
            )

    @settings(max_examples=30, deadline=None)
    @given(stream=command_streams)
    def test_hoisted_lists_stay_the_registers(self, stream):
        """The controller hoists the register lists once, so the device must
        mutate them in place and never rebind them."""
        device = DramDevice(ORG, TIMING)
        hoisted = registers(device)
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            on_device(device, op, row, cycle)
        assert all(a is b for a, b in zip(hoisted, registers(device)))


class TestArrayBackendViolations:
    """Every illegal command class raises through the device's register lists."""

    @pytest.fixture()
    def open_pair(self):
        """Both banks with row 5 open at cycle 0."""
        reference, device = make_pair()
        reference.activate(5, 0)
        device.activate(0, 5, 0)
        return reference, device

    def _assert_same_violation(self, reference, device, op, cycle, row=0):
        expected = on_reference(reference, op, row, cycle)
        assert expected[0] == "violation"
        assert on_device(device, op, row, cycle) == expected

    def test_activate_on_open_bank(self, open_pair):
        self._assert_same_violation(*open_pair, "act", TIMING.tRC + 10, row=6)

    def test_activate_too_early(self, open_pair):
        reference, device = open_pair
        reference.precharge(TIMING.tRAS)
        device.precharge(0, TIMING.tRAS)
        # The bank is idle but tRP has not elapsed yet.
        self._assert_same_violation(
            reference, device, "act", TIMING.tRAS + 1, row=6
        )

    def test_precharge_on_idle_bank(self):
        self._assert_same_violation(*make_pair(), "pre", 100)

    def test_precharge_too_early(self, open_pair):
        self._assert_same_violation(*open_pair, "pre", 1)  # < tRAS

    def test_read_on_idle_bank(self):
        self._assert_same_violation(*make_pair(), "rd", 100)

    def test_read_too_early(self, open_pair):
        self._assert_same_violation(*open_pair, "rd", 1)  # < tRCD

    def test_write_on_idle_bank(self):
        self._assert_same_violation(*make_pair(), "wr", 100)

    def test_write_too_early(self, open_pair):
        self._assert_same_violation(*open_pair, "wr", 1)  # < tRCD

    def test_block_on_open_bank(self, open_pair):
        self._assert_same_violation(*open_pair, "block", 100)

    def test_block_too_early(self):
        reference, device = make_pair()
        reference.block(0, TIMING.tRFM)
        device.rfm([0], 0)
        self._assert_same_violation(reference, device, "block", TIMING.tRFM - 1)

    def test_refresh_on_open_bank(self, open_pair):
        self._assert_same_violation(*open_pair, "ref", 100)

    def test_victim_refresh_on_open_bank(self, open_pair):
        self._assert_same_violation(*open_pair, "vrr", 100)

    def test_victim_refresh_too_early(self, open_pair):
        reference, device = open_pair
        reference.precharge(TIMING.tRAS)
        device.precharge(0, TIMING.tRAS)
        self._assert_same_violation(reference, device, "vrr", TIMING.tRAS + 1)

    def test_violation_names_bank_command_state_and_register(self, open_pair):
        _, device = open_pair
        with pytest.raises(TimingViolation) as excinfo:
            device.read(0, 1)
        assert str(excinfo.value) == (
            f"bank 0: RD at cycle 1 illegal (state=active, next_rd={TIMING.tRCD})"
        )

    def test_violation_is_runtime_error(self):
        _, device = make_pair()
        with pytest.raises(RuntimeError):
            device.read(0, 0)


class TestCountsMatchReference:
    """Command counts after a mixed legal stream match the reference stats."""

    def test_totals_identical(self):
        reference, device = make_pair()

        def issue(op, cycle):
            assert on_reference(reference, op, 4, cycle)[0] != "violation"
            assert on_device(device, op, 4, cycle)[0] != "violation"

        cycle = 0
        for _ in range(3):
            issue("act", cycle)
            cycle += TIMING.tRCD
            issue("rd", cycle)
            cycle += TIMING.tCCD
            issue("wr", cycle)
            cycle = max(reference.ready_cycle_for_precharge(), cycle + TIMING.tCCD)
            issue("pre", cycle)
            issue("vrr", reference.ready_cycle_for_activate())
            issue("block", reference.ready_cycle_for_activate())
            cycle = reference.ready_cycle_for_activate()
        observed = device_observables(device, cycle)["counts"]
        assert observed == reference_observables(reference, cycle)["counts"]
        # The stream is deterministic: pin the actual totals too (the VRRs
        # refresh 1 + 4 % 3 = 2 rows each).
        assert observed == (3, 3, 3, 3, 6)
        assert device.command_counts["RFM"] == 3
