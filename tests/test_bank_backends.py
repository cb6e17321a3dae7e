"""Plane-backed bank view vs the attribute-per-register reference bank.

The production :class:`~repro.dram.bank.Bank` is a view over one slot of a
structure-of-arrays timing plane.  It must be *observably identical* to the
simple reference model in ``tests/bank_reference.py``: same legality
decisions, same :class:`TimingViolation` classes and messages, same register
trajectories, same stats.  Four layers pin that:

1. randomized command streams (Hypothesis) driven through a reference/view
   bank pair, comparing every observable -- including raised violations --
   after every command;
2. direct illegal-command coverage: every command class raises
   :class:`TimingViolation` through the view, with the exact reference
   message, for both its state violation and its too-early timing
   violation;
3. :class:`BankStats` totals (and ``merge`` results) identical to the
   reference after a mixed legal stream;
4. plane adoption and pooling: a device resets an adopted plane, and the
   batch engine's pooled (dirty) planes change no simulated number, for
   every mechanism on one and two channels.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.factory import MECHANISM_NAMES
from repro.dram.bank import Bank, BankStats, TimingViolation
from repro.dram.device import DramDevice
from repro.dram.timing import ddr5_3200an
from repro.dram.timing_plane import NO_ROW, BankArrayTiming
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import build_job_traces, mechanism_job
from repro.system.config import paper_system_config
from repro.system.simulator import SystemSimulator, simulate

from bank_reference import ObjectBank

TIMING = ddr5_3200an()


def make_pair():
    """A reference bank and a plane view, same id and timing."""
    return ObjectBank(0, TIMING), Bank(0, TIMING)


def observables(bank, cycle):
    """Every externally visible bank property at ``cycle``."""
    return {
        "state": bank.state,
        "open_row": bank.open_row,
        "last_act_cycle": bank.last_act_cycle,
        "next_act": bank.ready_cycle_for_activate(),
        "next_pre": bank.ready_cycle_for_precharge(),
        "next_rd": bank.ready_cycle_for_read(),
        "next_wr": bank.ready_cycle_for_write(),
        "can_activate": bank.can_activate(cycle),
        "can_precharge": bank.can_precharge(cycle),
        "can_read": bank.can_read(cycle),
        "can_write": bank.can_write(cycle),
        "is_open": bank.is_open(),
        "stats": (
            bank.stats.activations,
            bank.stats.precharges,
            bank.stats.reads,
            bank.stats.writes,
            bank.stats.victim_refreshes,
        ),
    }


def apply_command(bank, op, row, cycle):
    """Run one command; return ``(outcome, violation message or None)``."""
    try:
        if op == "act":
            return bank.activate(row, cycle), None
        if op == "pre":
            return bank.precharge(cycle), None
        if op == "rd":
            return bank.read(cycle), None
        if op == "wr":
            return bank.write(cycle), None
        if op == "block":
            return bank.block(cycle, 10 + row), None
        return bank.victim_refresh(cycle, rows=1 + row % 3), None
    except TimingViolation as violation:
        return "violation", str(violation)


#: Command streams mixing all six command classes; ``gap`` values straddle
#: the DDR5 timing constants so both legal and too-early issues occur.
command_streams = st.lists(
    st.tuples(
        st.sampled_from(("act", "pre", "rd", "wr", "block", "vrr")),
        st.integers(0, 7),       # row operand
        st.integers(0, 40),      # cycle gap before the command
    ),
    min_size=1,
    max_size=200,
)


class TestDifferentialStreams:
    """Hypothesis: identical trajectories, violations and stats."""

    @settings(max_examples=60, deadline=None)
    @given(stream=command_streams)
    def test_command_stream_equivalence(self, stream):
        obj, arr = make_pair()
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            obj_out = apply_command(obj, op, row, cycle)
            arr_out = apply_command(arr, op, row, cycle)
            # Same return value, or the same violation with the same text.
            assert obj_out == arr_out
            assert observables(obj, cycle) == observables(arr, cycle)

    @settings(max_examples=60, deadline=None)
    @given(stream=command_streams)
    def test_plane_slot_matches_registers(self, stream):
        """The plane arrays always mirror the view's register values."""
        _, arr = make_pair()
        plane = arr.plane
        cycle = 0
        for op, row, gap in stream:
            cycle += gap
            apply_command(arr, op, row, cycle)
            assert int(plane.next_act[0]) == arr.ready_cycle_for_activate()
            assert int(plane.next_pre[0]) == arr.ready_cycle_for_precharge()
            assert int(plane.next_rd[0]) == arr.ready_cycle_for_read()
            assert int(plane.next_wr[0]) == arr.ready_cycle_for_write()
            open_row = arr.open_row
            assert int(plane.open_row[0]) == (NO_ROW if open_row is None else open_row)


class TestArrayBackendViolations:
    """Every illegal command class raises through the plane view."""

    @pytest.fixture()
    def open_pair(self):
        """Both banks with row 5 open at cycle 0."""
        obj, arr = make_pair()
        obj.activate(5, 0)
        arr.activate(5, 0)
        return obj, arr

    def _assert_same_violation(self, obj, arr, command, *args):
        with pytest.raises(TimingViolation) as obj_exc:
            getattr(obj, command)(*args)
        with pytest.raises(TimingViolation) as arr_exc:
            getattr(arr, command)(*args)
        assert str(arr_exc.value) == str(obj_exc.value)

    def test_activate_on_open_bank(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "activate", 6, TIMING.tRC + 10)

    def test_activate_too_early(self, open_pair):
        obj, arr = open_pair
        obj.precharge(TIMING.tRAS)
        arr.precharge(TIMING.tRAS)
        # The bank is idle but tRP has not elapsed yet.
        self._assert_same_violation(obj, arr, "activate", 6, TIMING.tRAS + 1)

    def test_precharge_on_idle_bank(self):
        obj, arr = make_pair()
        self._assert_same_violation(obj, arr, "precharge", 100)

    def test_precharge_too_early(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "precharge", 1)  # < tRAS

    def test_read_on_idle_bank(self):
        obj, arr = make_pair()
        self._assert_same_violation(obj, arr, "read", 100)

    def test_read_too_early(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "read", 1)  # < tRCD

    def test_write_on_idle_bank(self):
        obj, arr = make_pair()
        self._assert_same_violation(obj, arr, "write", 100)

    def test_write_too_early(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "write", 1)  # < tRCD

    def test_block_on_open_bank(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "block", 100, 32)

    def test_victim_refresh_on_open_bank(self, open_pair):
        obj, arr = open_pair
        self._assert_same_violation(obj, arr, "victim_refresh", 100)

    def test_violation_is_runtime_error(self):
        _, arr = make_pair()
        with pytest.raises(RuntimeError):
            arr.read(0)


class TestBankStatsAcrossBackends:
    """Stats counting and merge totals match the reference."""

    def _run_mixed_stream(self, bank):
        cycle = 0
        for _ in range(3):
            bank.activate(4, cycle)
            cycle += TIMING.tRCD
            bank.read(cycle)
            cycle += TIMING.tCCD
            bank.write(cycle)
            cycle = max(
                bank.ready_cycle_for_precharge(), cycle + TIMING.tCCD
            )
            bank.precharge(cycle)
            cycle = bank.ready_cycle_for_activate()
            bank.victim_refresh(cycle, rows=2)
            cycle = bank.ready_cycle_for_activate()
            bank.block(cycle, 16)
            cycle = bank.ready_cycle_for_activate()

    def test_merge_totals_identical(self):
        obj, arr = make_pair()
        self._run_mixed_stream(obj)
        self._run_mixed_stream(arr)
        totals = {}
        for name, bank in (("object", obj), ("array", arr)):
            merged = BankStats()
            merged.merge(bank.stats)
            merged.merge(bank.stats)
            totals[name] = (
                merged.activations,
                merged.precharges,
                merged.reads,
                merged.writes,
                merged.victim_refreshes,
            )
        assert totals["object"] == totals["array"]
        # The stream is deterministic: pin the actual totals too.
        assert totals["array"] == (6, 6, 6, 6, 12)


class TestPlaneAdoption:
    """Shared planes: slot binding, size checks and reset on adoption."""

    def test_shared_plane_view(self):
        plane = BankArrayTiming(4)
        bank = Bank(2, TIMING, plane=plane, index=2)
        bank.activate(9, 0)
        assert int(plane.open_row[2]) == 9

    def test_shared_plane_requires_index(self):
        with pytest.raises(ValueError, match="slot index"):
            Bank(0, TIMING, plane=BankArrayTiming(4))

    def test_device_rejects_mis_sized_plane(self):
        organization = paper_system_config().organization
        with pytest.raises(ValueError, match="banks"):
            DramDevice(organization, TIMING, timing_plane=BankArrayTiming(2))

    def test_device_resets_adopted_plane(self):
        organization = paper_system_config().organization
        plane = BankArrayTiming(organization.total_banks)
        plane.next_act.fill(123)
        plane.open_row.fill(7)
        device = DramDevice(organization, TIMING, timing_plane=plane)
        assert device.timing_plane is plane
        assert plane.is_pristine()


class TestTimingPlane:
    """The plane container itself: reset, pristine checks, twins."""

    def test_reset_restores_construction_state(self):
        plane = BankArrayTiming(8)
        plane.next_act[3] = 99
        plane.open_row[5] = 2
        plane.last_act[5] = 40
        assert not plane.is_pristine()
        plane.reset()
        assert plane.is_pristine()

    def test_memoryview_twins_share_storage(self):
        plane = BankArrayTiming(4)
        plane.next_rd_mv[1] = 77
        assert int(plane.next_rd[1]) == 77
        plane.open_row[2] = 5
        assert plane.open_row_mv[2] == 5
        plane.reset()
        assert plane.next_rd_mv[1] == 0 and plane.open_row_mv[2] == NO_ROW

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError, match="num_banks"):
            BankArrayTiming(0)


def _dirty_planes(total_banks, channels):
    """Planes with junk in every register, as a pooled plane may hold."""
    planes = [BankArrayTiming(total_banks) for _ in range(channels)]
    for plane in planes:
        plane.next_act.fill(31337)
        plane.next_pre.fill(4242)
        plane.next_rd.fill(777)
        plane.next_wr.fill(999)
        plane.open_row.fill(3)
        plane.last_act.fill(12345)
        assert not plane.is_pristine()
    return planes


class TestFullSimulationEquivalence:
    """Pooled planes are observably identical to fresh ones."""

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_payloads_identical(self, mechanism, channels):
        """Every mechanism's payload is unchanged by dirty adopted planes."""
        base = paper_system_config().with_overrides(channels=channels)
        job = mechanism_job(base, ("429.mcf", "401.bzip2"), mechanism, 64, 300)
        fresh = simulate(
            job.config, build_job_traces(job), workload_name=job.workload_name
        )
        planes = _dirty_planes(job.config.organization.total_banks, channels)
        pooled = SystemSimulator(
            job.config,
            build_job_traces(job),
            workload_name=job.workload_name,
            timing_planes=planes,
        ).run()
        assert json.dumps(result_to_dict(fresh), sort_keys=True) == json.dumps(
            result_to_dict(pooled), sort_keys=True
        )

    def test_pooled_planes_identical_to_fresh(self):
        """Pre-allocated (dirty) planes change nothing observable."""
        base = paper_system_config().with_overrides(channels=2)
        job = mechanism_job(base, ("429.mcf", "401.bzip2"), "PRAC-4", 64, 300)
        traces = build_job_traces(job)
        fresh = simulate(job.config, traces, workload_name=job.workload_name)
        total_banks = job.config.organization.total_banks
        planes = [BankArrayTiming(total_banks) for _ in range(2)]
        for plane in planes:
            plane.next_act.fill(31337)  # dirty: adoption must reset it
            plane.open_row.fill(3)
        pooled = SystemSimulator(
            job.config,
            traces,
            workload_name=job.workload_name,
            timing_planes=planes,
        ).run()
        assert json.dumps(result_to_dict(fresh), sort_keys=True) == json.dumps(
            result_to_dict(pooled), sort_keys=True
        )

    def test_simulator_validates_plane_count(self):
        base = paper_system_config().with_overrides(channels=2)
        job = mechanism_job(base, ("429.mcf", "401.bzip2"), "None", 64, 50)
        traces = build_job_traces(job)
        total_banks = job.config.organization.total_banks
        with pytest.raises(ValueError, match="timing planes"):
            SystemSimulator(
                job.config,
                traces,
                timing_planes=[BankArrayTiming(total_banks)],
            )
