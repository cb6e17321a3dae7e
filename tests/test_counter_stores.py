"""Stream properties of the counter stores and the mechanisms that own them.

Each store is driven with random event streams (Hypothesis) and checked
after every event against a plain model of what it has to count:

1. :class:`PerRowCounters` against an insertion-ordered dict (values and
   iteration order, a reset row re-entering at the back);
2. :class:`AggressorTrackingTable` against its documented replacement
   policy (update in place, insert while a slot is free, replace the
   lowest entry only when exceeded, serve the maximum);
3. the mechanisms against the activations each row actually received:
   Graphene's Misra-Gries estimates never undercount, Hydra refreshes an
   aggressor before its row threshold, ABACuS refreshes a row address
   before any bank exceeds its trigger point, PRAC / Chronus counters equal
   each row's activations since its victims were last refreshed, and
   Chronus keeps the back-off asserted exactly while a row at or above the
   back-off threshold awaits its refresh;
4. memory: every factory mechanism's per-row state follows the rows that
   were activated, not the highest row address.
"""

import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.abacus import ABACuS
from repro.core.chronus import Chronus
from repro.core.counters import AggressorTrackingTable, PerRowCounters
from repro.core.factory import MECHANISM_NAMES, build_mechanism
from repro.core.graphene import Graphene
from repro.core.hydra import Hydra
from repro.core.prac import PRAC

NUM_BANKS = 4

#: (bank, row) event streams: small domains force table collisions,
#: spillover evictions, RAV reuse and group promotions.
act_streams = st.lists(
    st.tuples(st.integers(0, NUM_BANKS - 1), st.integers(0, 9)),
    min_size=1,
    max_size=300,
)


def drain_refreshes(mechanism):
    """Pop every queued preventive refresh, in bank-then-FIFO order."""
    drained = []
    for bank_id in sorted(mechanism.banks_with_pending_refreshes()):
        while True:
            refresh = mechanism.pop_refresh(bank_id)
            if refresh is None:
                break
            drained.append(refresh)
    return drained


row_events = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.integers(0, 15)),
        st.tuples(st.just("reset"), st.integers(0, 15)),
        st.tuples(st.just("reset_all"), st.just(0)),
    ),
    min_size=1,
    max_size=300,
)


class TestPerRowCountersStream:
    """Values and iteration order follow an insertion-ordered dict."""

    @settings(max_examples=60, deadline=None)
    @given(events=row_events)
    def test_event_stream_matches_dict_model(self, events):
        store = PerRowCounters(2)
        model = {}
        for kind, row in events:
            if kind == "inc":
                model[row] = model.get(row, 0) + 1
                assert store.increment(1, row) == model[row]
            elif kind == "reset":
                model.pop(row, None)
                store.reset_row(1, row)
            else:
                model.clear()
                store.reset_all()
            assert list(store.iter_bank(1)) == list(model.items())
            assert list(store.iter_bank(0)) == []
            for probe in range(16):
                assert store.get(1, probe) == model.get(probe, 0)

    def test_reinsert_after_reset_moves_row_to_back(self):
        store = PerRowCounters(1)
        for row in range(64):
            store.increment(0, row)
        for row in range(0, 64, 2):
            store.reset_row(0, row)
        assert [row for row, _ in store.iter_bank(0)] == list(range(1, 64, 2))
        store.increment(0, 0)
        assert [row for row, _ in store.iter_bank(0)] == list(range(1, 64, 2)) + [0]


ATT_ENTRIES = 3

att_events = st.lists(
    st.one_of(
        st.tuples(st.just("update"), st.integers(0, 9), st.integers(1, 50)),
        st.tuples(st.just("invalidate"), st.integers(0, 9), st.just(0)),
        st.tuples(st.just("pop_max"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=200,
)


class TestAggressorTableStream:
    """The ATT follows the replacement policy of its class docstring."""

    @settings(max_examples=60, deadline=None)
    @given(events=att_events)
    def test_event_stream_follows_replacement_policy(self, events):
        att = AggressorTrackingTable(ATT_ENTRIES)
        for kind, row, count in events:
            before = {entry.row: entry.count for entry in att.valid_entries()}
            expected = dict(before)
            if kind == "update":
                att.update(row, count)
                if row in before or len(before) < ATT_ENTRIES:
                    expected[row] = count
                elif count > min(before.values()):
                    # Exactly one lowest-count entry makes room for the row.
                    (evicted,) = set(before) - set(att.tracked_rows())
                    assert before[evicted] == min(before.values())
                    del expected[evicted]
                    expected[row] = count
            elif kind == "invalidate":
                att.invalidate(row)
                expected.pop(row, None)
            else:
                # The RFM service pattern: invalidate the current maximum.
                entry = att.max_entry()
                if not before:
                    assert entry is None
                    continue
                assert entry.count == max(before.values()) == before[entry.row]
                att.invalidate(entry.row)
                del expected[entry.row]
            after = att.valid_entries()
            assert {entry.row: entry.count for entry in after} == expected
            assert len(att) == len(after) <= ATT_ENTRIES
            assert sorted(att.tracked_rows()) == sorted(expected)
            counts = [entry.count for entry in after]
            assert counts == sorted(counts, reverse=True)

    def test_freelist_reuses_lowest_slot_first(self):
        att = AggressorTrackingTable(3)
        for row in (10, 11, 12):
            att.update(row, 5)
        att.invalidate(11)
        att.invalidate(10)
        att.update(20, 1)
        # The first invalid slot (row 10's) is reused, which is visible
        # through the slot-ordered tracked_rows view.
        assert att.tracked_rows() == [20, 12]


class TestControllerMechanismStreams:
    """Graphene / Hydra / ABACuS against the activations rows received.

    Every stream ends a refresh window every 97 activations.  A window
    refreshes every row, so the models restart there too.
    """

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_graphene_estimates_never_undercount(self, stream):
        graphene = Graphene(nrh=4, num_banks=NUM_BANKS, table_entries=3)
        activations = defaultdict(int)
        for cycle, (bank, row) in enumerate(stream):
            graphene.on_activate(bank, row, cycle)
            activations[bank, row] += 1
            for refresh in drain_refreshes(graphene):
                assert (refresh.bank_id, refresh.aggressor_row) == (bank, row)
                assert refresh.num_rows == graphene.victim_rows_per_aggressor
            for (bank_id, tracked), count in activations.items():
                table = graphene.tables[bank_id]
                entry = table.entries.get(tracked)
                if entry is None:
                    # An untracked row never outgrew the spillover counter ...
                    assert count <= table.spillover
                else:
                    # ... and a tracked row's estimate covers all its ACTs.
                    assert entry.count >= count
            for table in graphene.tables:
                for entry in table.entries.values():
                    assert entry.count >= table.spillover
                    assert entry.count - entry.last_trigger < graphene.trigger_threshold
            if cycle % 97 == 96:
                graphene.on_refresh_window(cycle)
                activations.clear()

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_hydra_refreshes_before_row_threshold(self, stream):
        hydra = Hydra(nrh=8, num_banks=NUM_BANKS, group_size=4, rcc_entries=4)
        since_refresh = defaultdict(int)
        for cycle, (bank, row) in enumerate(stream):
            hydra.on_activate(bank, row, cycle)
            since_refresh[bank, row] += 1
            for refresh in drain_refreshes(hydra):
                assert (refresh.bank_id, refresh.aggressor_row) == (bank, row)
                if refresh.num_rows == hydra.victim_rows_per_aggressor:
                    since_refresh[bank, row] = 0
                else:
                    # An RCC miss: a one-row RCT fetch, not a mitigation.
                    assert refresh.num_rows == 1
            assert since_refresh[bank, row] < hydra.row_threshold
            if cycle % 97 == 96:
                hydra.on_refresh_window(cycle)
                since_refresh.clear()

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_abacus_refreshes_row_address_before_trigger_bound(self, stream):
        # One sibling counter per row address of the stream: the bound is
        # the guarantee for tracked rows, so nothing may be evicted.
        abacus = ABACuS(nrh=4, num_banks=NUM_BANKS, table_entries=10)
        since_trigger = defaultdict(int)
        for cycle, (bank, row) in enumerate(stream):
            abacus.on_activate(bank, row, cycle)
            since_trigger[bank, row] += 1
            refreshes = drain_refreshes(abacus)
            if refreshes:
                assert {refresh.aggressor_row for refresh in refreshes} == {row}
                assert bank in {refresh.bank_id for refresh in refreshes}
                for bank_id in range(NUM_BANKS):
                    since_trigger[bank_id, row] = 0
            # The shared count tracks the busiest bank: between two sibling
            # refreshes of an address, no bank activates it more than
            # trigger_threshold + 1 times (the last of those triggers).
            assert since_trigger[bank, row] <= abacus.trigger_threshold
            if cycle % 97 == 96:
                abacus.on_refresh_window(cycle)
                since_trigger.clear()


class TestOnDieMechanismStreams:
    """PRAC / Chronus counters against the activations rows received."""

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_prac_counts_activations_since_victim_refresh(self, stream):
        prac = PRAC(nrh=64, num_banks=NUM_BANKS, nbo=4)
        self._assert_counts_follow_stream(prac, stream, precharge=True)

    @settings(max_examples=40, deadline=None)
    @given(stream=act_streams)
    def test_chronus_counts_activations_since_victim_refresh(self, stream):
        chronus = Chronus(nrh=64, num_banks=NUM_BANKS, nbo=4)
        self._assert_counts_follow_stream(chronus, stream, precharge=False)

    def _assert_counts_follow_stream(self, mechanism, stream, precharge):
        all_banks = list(range(NUM_BANKS))
        counts = defaultdict(int)
        refreshed = []
        mechanism.add_mitigation_listener(
            lambda bank_id, row, num_rows, cycle: refreshed.append((bank_id, row))
        )
        for cycle, (bank, row) in enumerate(stream):
            mechanism.on_activate(bank, row, cycle)
            if precharge:
                mechanism.on_precharge(bank, row, cycle)
            counts[bank, row] += 1
            if isinstance(mechanism, Chronus):
                # Chronus Back-Off: asserted exactly while a row at or above
                # NBO awaits the refresh of its victims.
                assert mechanism.backoff_asserted() == any(
                    count >= mechanism.nbo for count in counts.values()
                )
            # Serve the back-off exactly like the memory controller would.
            for _ in range(len(counts) + mechanism.num_banks):
                if not mechanism.wants_more_rfm():
                    break
                mechanism.on_rfm(all_banks, cycle)
            assert not mechanism.wants_more_rfm()
            if cycle % 53 == 52:
                mechanism.on_periodic_refresh(all_banks, cycle)
            for key in refreshed:
                counts[key] = 0
            refreshed.clear()
            if isinstance(mechanism, Chronus):
                assert all(count < mechanism.nbo for count in counts.values())
            for (bank_id, tracked), count in counts.items():
                assert mechanism.counters.get(bank_id, tracked) == count
            for bank_id in all_banks:
                for entry in mechanism.att[bank_id].valid_entries():
                    assert entry.count == mechanism.counters.get(bank_id, entry.row)


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_mechanism_state_follows_activated_rows(name):
    """Row 65,535 of each of 64 banks: a row-address-sized layout would
    hold 64 x 65,536 slots (~32 MiB); activated-row state stays tiny."""
    setup = build_mechanism(name, nrh=64, num_banks=64, seed=0)
    tracemalloc.start()
    try:
        for bank_id in range(64):
            for mechanism in setup.mechanisms():
                mechanism.on_activate(bank_id, 65_535, bank_id)
                mechanism.on_precharge(bank_id, 65_535, bank_id)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
