"""Cross-mitigation invariants, parametrized over every factory mechanism.

Three families of properties must hold for *every* mechanism
:func:`repro.core.factory.build_mechanism` can produce:

1. **Threshold**: hammering a single row must raise the mechanism's
   mitigation signal (back-off for on-die mechanisms, a pending preventive
   refresh or RFM request for controller mechanisms) after no more
   activations than its configured trigger point implies -- and that trigger
   point must not exceed the RowHammer threshold the mechanism was built for.
2. **Counters**: no internal activation counter may ever go negative, no
   matter how activations, preventive actions and resets interleave.
3. **Reset semantics**: the refresh-window reset (``on_refresh_window``)
   must clear the activation-tracking state of window-based mechanisms, and
   a mechanism built after another one ran must start clean and reproduce
   the exact same behaviour when the workload is replayed (construction is
   the only full reset).
"""

from __future__ import annotations

import pytest

from repro.core.abacus import ABACuS
from repro.core.chronus import Chronus
from repro.core.factory import MECHANISM_NAMES, build_mechanism
from repro.core.graphene import Graphene
from repro.core.hydra import Hydra
from repro.core.mitigation import (
    DEFAULT_BLAST_RADIUS,
    ControllerMitigation,
    MitigationMechanism,
    OnDieMitigation,
)
from repro.core.para import PARA
from repro.core.prac import PRAC
from repro.core.prfm import PRFM

NUM_BANKS = 8
NRH_VALUES = (512, 64)

#: Mechanisms with at least one installed component (everything but "None").
ACTIVE_MECHANISMS = tuple(name for name in MECHANISM_NAMES if name != "None")

#: Mechanisms whose activation tracking is defined to clear at the refresh
#: window boundary (PRFM's per-bank counters and PARA's RNG are not
#: window-based state).
WINDOW_RESET_MECHANISMS = tuple(
    name for name in ACTIVE_MECHANISMS if name not in ("PRFM", "PARA")
)

CYCLES_PER_ACT = 50


def build(name: str, nrh: int):
    return build_mechanism(name, nrh=nrh, num_banks=NUM_BANKS, seed=0)


def trigger_bound(mechanism: MitigationMechanism, nrh: int) -> int:
    """Activations after which this component must have raised its signal."""
    if isinstance(mechanism, (PRAC, Chronus)):
        return mechanism.nbo
    if isinstance(mechanism, PRFM):
        return mechanism.rfm_threshold
    if isinstance(mechanism, Graphene):
        return mechanism.trigger_threshold
    if isinstance(mechanism, Hydra):
        return mechanism.row_threshold
    if isinstance(mechanism, ABACuS):
        return mechanism.trigger_threshold + 1
    if isinstance(mechanism, PARA):
        # Probabilistic: with the provisioned p, the chance of surviving
        # N_RH activations is the target failure probability (1e-15).
        return nrh
    raise AssertionError(f"no trigger bound defined for {type(mechanism).__name__}")


def signal_raised(mechanism: MitigationMechanism, bank: int) -> bool:
    """True once the mechanism requests any preventive action."""
    if isinstance(mechanism, OnDieMitigation):
        return mechanism.backoff_asserted()
    assert isinstance(mechanism, ControllerMitigation)
    return (
        mechanism.pending_refresh(bank) is not None
        or bank in mechanism.rfm_pending_banks()
    )


def hammer(setup, bank: int, row: int, count: int, service: bool = False, start_cycle: int = 0) -> int:
    """Drive ``count`` activate/precharge pairs of one row into every component.

    With ``service=True`` the preventive actions are drained the way the
    memory controller would (RFMs for on-die mechanisms, queue pops and RFM
    acknowledgements for controller mechanisms).
    """
    cycle = start_cycle
    for _ in range(count):
        for mechanism in setup.mechanisms():
            mechanism.on_activate(bank, row, cycle)
            mechanism.on_precharge(bank, row, cycle)
        if service:
            service_all(setup, bank, cycle)
        cycle += CYCLES_PER_ACT
    return cycle


def service_all(setup, bank: int, cycle: int) -> None:
    for mechanism in setup.mechanisms():
        if isinstance(mechanism, OnDieMitigation):
            for _ in range(100):
                if not mechanism.wants_more_rfm():
                    break
                mechanism.on_rfm([bank], cycle)
            else:  # pragma: no cover - would indicate a livelock bug
                raise AssertionError(f"{mechanism.name} never released the back-off")
        else:
            assert isinstance(mechanism, ControllerMitigation)
            while mechanism.pop_refresh(bank) is not None:
                pass
            if bank in mechanism.rfm_pending_banks():
                mechanism.acknowledge_rfm(bank, cycle)


def iter_counter_values(mechanism: MitigationMechanism):
    """Every internal activation-count value the mechanism currently holds."""
    yield from mechanism.stats.as_dict().values()
    if isinstance(mechanism, (PRAC, Chronus)):
        for bank in range(NUM_BANKS):
            for _, count in mechanism.counters.iter_bank(bank):
                yield count
            for entry in mechanism.att[bank].valid_entries():
                yield entry.count
    if isinstance(mechanism, PRFM):
        for bank in range(NUM_BANKS):
            yield mechanism.bank_counter(bank)
    if isinstance(mechanism, Graphene):
        for table in mechanism.tables:
            yield table.spillover
            for entry in table.entries.values():
                yield entry.count
    if isinstance(mechanism, Hydra):
        yield from mechanism.iter_count_values()
    if isinstance(mechanism, ABACuS):
        yield mechanism.spillover
        for entry in mechanism.sibling_entries().values():
            yield entry.count


@pytest.mark.parametrize("nrh", NRH_VALUES)
@pytest.mark.parametrize("name", ACTIVE_MECHANISMS)
class TestThresholdInvariant:
    def test_signal_raised_within_component_trigger_bound(self, name, nrh):
        setup = build(name, nrh)
        components = list(setup.mechanisms())
        assert components, f"{name} installed no mechanism"
        bound = max(trigger_bound(m, nrh) for m in components)
        hammer(setup, bank=0, row=7, count=bound)
        for mechanism in components:
            if trigger_bound(mechanism, nrh) <= bound:
                assert signal_raised(mechanism, bank=0), (
                    f"{mechanism.name} stayed silent after "
                    f"{trigger_bound(mechanism, nrh)} activations of one row"
                )

    def test_trigger_point_never_exceeds_nrh(self, name, nrh):
        """A mechanism may not let a row reach N_RH activations unmitigated."""
        setup = build(name, nrh)
        bound = min(trigger_bound(m, nrh) for m in setup.mechanisms())
        assert bound <= nrh

    def test_hammering_produces_mitigation_actions(self, name, nrh):
        setup = build(name, nrh)
        hammer(setup, bank=0, row=7, count=nrh, service=True)
        actions = sum(
            m.stats.preventive_refresh_rows + m.stats.rfm_commands + m.stats.backoffs
            for m in setup.mechanisms()
        )
        assert actions > 0, f"{name} never mitigated a row hammered {nrh} times"


@pytest.mark.parametrize("nrh", NRH_VALUES)
@pytest.mark.parametrize("name", ACTIVE_MECHANISMS)
class TestCounterInvariant:
    def test_counters_never_negative(self, name, nrh):
        setup = build(name, nrh)
        cycle = 0
        # Interleave hammering, servicing, window resets and more hammering
        # across two banks to exercise every decrement / reset path.
        for row in (3, 4, 5):
            cycle = hammer(setup, 0, row, nrh // 2 + 3, service=True, start_cycle=cycle)
            cycle = hammer(setup, 1, row, 5, service=True, start_cycle=cycle)
        for mechanism in setup.mechanisms():
            mechanism.on_periodic_refresh([0, 1], cycle)
            mechanism.on_refresh_window(cycle)
        cycle = hammer(setup, 0, 3, 7, service=True, start_cycle=cycle)
        for mechanism in setup.mechanisms():
            for value in iter_counter_values(mechanism):
                assert value >= 0, f"{mechanism.name} holds a negative counter"


def rearm_bound(mechanism: MitigationMechanism, nrh: int) -> int:
    """Activations needed to re-trigger after tracking state was cleared.

    PRAC-family mechanisms additionally enforce the delay period: after a
    served back-off, ``NDelay = NRef`` activations must pass before the
    signal may be re-asserted (the L3 weakness of the paper's Fig. 6).
    """
    if isinstance(mechanism, PRAC):
        return max(mechanism.nbo, mechanism.nref)
    return trigger_bound(mechanism, nrh)


@pytest.mark.parametrize("name", WINDOW_RESET_MECHANISMS)
class TestRefreshWindowReset:
    NRH = 64

    def _hammer_reset_and_settle(self, setup, nrh: int) -> int:
        """Trigger every component, finish the back-off protocol, reset."""
        components = list(setup.mechanisms())
        bound = max(trigger_bound(m, nrh) for m in components)
        cycle = hammer(setup, bank=0, row=7, count=bound)
        # An asserted back-off is protocol state, not tracking state: it must
        # be served by RFMs (it survives the window boundary by design), and
        # queued-but-unserved refreshes are still owed by the controller.
        service_all(setup, 0, cycle)
        for mechanism in components:
            mechanism.on_refresh_window(cycle)
        service_all(setup, 0, cycle)
        return cycle

    def test_window_reset_clears_tracking_state(self, name):
        setup = build(name, self.NRH)
        self._hammer_reset_and_settle(setup, self.NRH)
        for mechanism in setup.mechanisms():
            assert not signal_raised(mechanism, bank=0)
            assert_tracking_cleared(mechanism)

    def test_row_must_be_rehammered_from_scratch_after_reset(self, name):
        if name == "Hydra":
            # Hydra re-fetches RCT entries through the RCC after the reset,
            # which legitimately queues maintenance accesses before the row
            # threshold, so the generic "no early signal" check does not
            # apply -- but the re-arm sequence is still fully deterministic
            # and worth pinning.
            self._assert_hydra_rcc_rearm(build(name, self.NRH))
            return
        setup = build(name, self.NRH)
        cycle = self._hammer_reset_and_settle(setup, self.NRH)
        # The PRFM component of PRAC+PRFM counts per-bank activations across
        # window boundaries by design, so only window-reset components take
        # part in the re-arm check.
        window = [m for m in setup.mechanisms() if not isinstance(m, PRFM)]
        bound = min(rearm_bound(m, self.NRH) for m in window)
        hammer(setup, bank=0, row=7, count=bound - 1, start_cycle=cycle)
        assert not any(signal_raised(m, bank=0) for m in window), (
            f"{name} re-triggered before re-accumulating its threshold"
        )
        hammer(setup, bank=0, row=7, count=1, start_cycle=cycle)
        assert any(signal_raised(m, bank=0) for m in window)

    def _assert_hydra_rcc_rearm(self, setup) -> None:
        """Pin Hydra's documented post-reset re-arm sequence.

        The window reset clears the GCT, the RCT and the RCC.  Re-hammering
        one row must then proceed in three deterministic phases:

        1. The group counter re-accumulates from zero; until it reaches the
           group threshold, no work of any kind is queued.
        2. The first per-row tracking access misses the *cleared* RCC and is
           served as exactly one one-row RCT maintenance access (DRAM
           traffic, counted in ``rct_dram_accesses`` -- not a mitigation).
        3. The per-row count restarts at the group threshold, so the
           victim-size preventive refresh fires only once it reaches the
           row threshold -- never earlier.
        """
        (hydra,) = setup.mechanisms()
        assert isinstance(hydra, Hydra)
        cycle = self._hammer_reset_and_settle(setup, self.NRH)
        accesses_before = hydra.rct_dram_accesses

        # Phase 1: silent group re-promotion.
        cycle = hammer(
            setup, bank=0, row=7, count=hydra.group_threshold, start_cycle=cycle
        )
        assert not signal_raised(hydra, bank=0), (
            "Hydra queued work while its group counter was re-accumulating"
        )
        assert hydra.rct_dram_accesses == accesses_before

        # Phase 2: first per-row access misses the cleared RCC.
        cycle = hammer(setup, bank=0, row=7, count=1, start_cycle=cycle)
        assert hydra.rct_dram_accesses == accesses_before + 1
        maintenance = hydra.pop_refresh(0)
        assert maintenance is not None and maintenance.num_rows == 1, (
            "the RCC miss must queue a one-row RCT maintenance access"
        )
        assert hydra.pop_refresh(0) is None

        # Phase 3: no victim refresh until the row threshold is reached.
        remaining = hydra.row_threshold - hydra.group_threshold
        for _ in range(remaining - 2):
            cycle = hammer(setup, bank=0, row=7, count=1, start_cycle=cycle)
            early = hydra.pop_refresh(0)
            assert early is None, (
                "Hydra issued a refresh before the re-initialised per-row "
                "count reached the row threshold"
            )
        cycle = hammer(setup, bank=0, row=7, count=1, start_cycle=cycle)
        victim = hydra.pop_refresh(0)
        assert victim is not None
        assert victim.num_rows == hydra.victim_rows_per_aggressor
        # The row stayed resident in the RCC throughout phase 3: the single
        # maintenance access of phase 2 is the only extra DRAM traffic.
        assert hydra.rct_dram_accesses == accesses_before + 1


def assert_tracking_cleared(mechanism: MitigationMechanism) -> None:
    if isinstance(mechanism, (PRAC, Chronus)):
        assert mechanism.counters.get(0, 7) == 0
        assert mechanism.att[0].max_entry() is None
    if isinstance(mechanism, Chronus):
        assert mechanism.pending_hot_rows() == 0
    if isinstance(mechanism, Graphene):
        assert all(table.max_count() == 0 for table in mechanism.tables)
    if isinstance(mechanism, ABACuS):
        assert not mechanism.sibling_entries() and mechanism.spillover == 0
    if isinstance(mechanism, Hydra):
        assert not any(mechanism.iter_count_values())


@pytest.mark.parametrize("name", ACTIVE_MECHANISMS)
def test_fresh_build_replays_identical_behaviour(name):
    """A setup built after another one ran must replay it byte-for-byte."""

    def drive(setup) -> list:
        cycle = 0
        for bank, row, count in ((0, 3, 40), (1, 9, 25), (0, 3, 12)):
            cycle = hammer(setup, bank, row, count, service=True, start_cycle=cycle)
        return [m.stats.as_dict() for m in setup.mechanisms()]

    first = drive(build(name, 64))
    assert any(any(stats.values()) for stats in first)
    fresh = build(name, 64)
    for mechanism in fresh.mechanisms():
        assert not any(mechanism.stats.as_dict().values())
        assert not signal_raised(mechanism, bank=0)
    assert drive(fresh) == first


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_factory_setup_is_well_formed(name):
    setup = build(name, 1024)
    assert setup.name == name
    assert setup.act_energy_multiplier >= 1.0
    for mechanism in setup.mechanisms():
        assert mechanism.nrh > 0
        assert mechanism.victim_rows_per_aggressor == 2 * DEFAULT_BLAST_RADIUS
