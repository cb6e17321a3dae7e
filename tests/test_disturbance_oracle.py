"""Tests for the ground-truth disturbance oracle and its simulator wiring."""

import pytest

from repro.attacks.oracle import DisturbanceOracle
from repro.attacks.patterns import AttackSpec
from repro.system.config import paper_system_config
from repro.system.simulator import simulate


class TestOracleUnit:
    def test_counts_and_peak(self):
        oracle = DisturbanceOracle(nrh=10)
        for _ in range(3):
            oracle.on_activate(0, 5, cycle=0)
        oracle.on_activate(1, 5, cycle=0)
        assert oracle.current_count(0, 5) == 3
        assert oracle.current_count(1, 5) == 1
        assert oracle.max_disturbance == 3
        assert (oracle.peak_bank, oracle.peak_row) == (0, 5)
        assert not oracle.escaped

    def test_escape_records_first_cycle(self):
        oracle = DisturbanceOracle(nrh=2)
        oracle.on_activate(0, 7, cycle=10)
        assert not oracle.escaped
        oracle.on_activate(0, 7, cycle=20)
        oracle.on_activate(0, 7, cycle=30)
        assert oracle.escaped
        assert oracle.first_escape_cycle == 20

    def test_full_refresh_resets_count(self):
        oracle = DisturbanceOracle(nrh=100)
        for _ in range(5):
            oracle.on_activate(0, 7, cycle=0)
        oracle.on_victims_refreshed(0, 7, num_rows=4, cycle=1)
        assert oracle.current_count(0, 7) == 0
        # The historical peak is preserved.
        assert oracle.max_disturbance == 5

    def test_partial_refresh_scales_count(self):
        oracle = DisturbanceOracle(nrh=100)
        for _ in range(8):
            oracle.on_activate(0, 7, cycle=0)
        # PARA-style: one of four victims refreshed -> 3/4 of the count stays.
        oracle.on_victims_refreshed(0, 7, num_rows=1, cycle=1)
        assert oracle.current_count(0, 7) == 6

    def test_device_chosen_refresh_resets_hottest_row(self):
        oracle = DisturbanceOracle(nrh=100)
        for _ in range(3):
            oracle.on_activate(0, 1, cycle=0)
        for _ in range(5):
            oracle.on_activate(0, 2, cycle=0)
        oracle.on_activate(1, 3, cycle=0)
        oracle.on_victims_refreshed(0, None, num_rows=4, cycle=1)
        assert oracle.current_count(0, 2) == 0
        assert oracle.current_count(0, 1) == 3
        assert oracle.current_count(1, 3) == 1

    def test_refresh_of_untouched_row_is_noop(self):
        oracle = DisturbanceOracle(nrh=100)
        oracle.on_victims_refreshed(0, 9, num_rows=4, cycle=0)
        oracle.on_victims_refreshed(0, None, num_rows=4, cycle=0)
        assert oracle.rows_tracked() == 0

    def test_stats_dict_contents(self):
        oracle = DisturbanceOracle(nrh=1)
        oracle.on_activate(0, 0, cycle=42)
        stats = oracle.stats_dict()
        assert stats["oracle_escaped"] == 1
        assert stats["oracle_first_escape_cycle"] == 42
        assert stats["oracle_max_disturbance"] == 1
        assert stats["oracle_activations"] == 1
        assert stats["oracle_rows_tracked"] == 1

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            DisturbanceOracle(nrh=0)
        with pytest.raises(ValueError):
            DisturbanceOracle(nrh=1, num_channels=0)


def run_attack(mechanism, nrh, spec=None, oracle_nrh=None):
    """Simulate one single-core attack with an oracle attached."""
    spec = spec or AttackSpec.create("single_sided", {"hammer_count": 300})
    config = paper_system_config(
        mechanism=mechanism, nrh=nrh, num_cores=1, attacker_cores=(0,)
    )
    oracle = DisturbanceOracle(nrh=oracle_nrh or nrh)
    result = simulate(config, [spec.compile()], oracle=oracle)
    return result, oracle


class TestSimulatorWiring:
    def test_no_mitigation_lets_attack_escape(self):
        result, oracle = run_attack("None", nrh=4)
        assert oracle.escaped
        assert result.mitigation_stats["oracle_escaped"] == 1
        assert (
            result.mitigation_stats["oracle_max_disturbance"]
            == oracle.max_disturbance
        )

    def test_oracle_sees_every_act(self):
        result, oracle = run_attack("None", nrh=4)
        assert oracle.activations_observed == result.command_counts["ACT"]

    def test_graphene_resets_counts_via_listener(self):
        _, oracle = run_attack("Graphene", nrh=8)
        assert oracle.mitigation_events > 0
        assert not oracle.escaped

    def test_chronus_keeps_attack_below_threshold(self):
        result, oracle = run_attack("Chronus", nrh=16)
        assert oracle.max_disturbance < 16
        assert result.mitigation_stats["oracle_escaped"] == 0

    def test_prfm_device_chosen_refreshes_observed(self):
        _, oracle = run_attack("PRFM", nrh=16)
        assert oracle.mitigation_events > 0

    def test_prfm_standalone_vs_composite_notification(self):
        """Standalone PRFM reports a device-chosen refresh per RFM; in a
        composite (an on-die mechanism present) the on-die side reports its
        own refreshes, so PRFM must not credit a phantom one -- even when the
        on-die mechanism refreshed zero rows."""
        from repro.core.prfm import PRFM

        events = []
        prfm = PRFM(nrh=64, num_banks=4)
        prfm.add_mitigation_listener(lambda *event: events.append(event))
        prfm.acknowledge_rfm(0, cycle=5)  # no on-die mechanism
        assert len(events) == 1 and events[0][1] is None
        prfm.acknowledge_rfm(0, cycle=6, on_die_refreshed=0)  # composite
        prfm.acknowledge_rfm(0, cycle=7, on_die_refreshed=4)
        assert len(events) == 1

    def test_para_partial_refreshes_observed(self):
        _, oracle = run_attack("PARA", nrh=8)
        assert oracle.mitigation_events > 0
        assert not oracle.escaped

    def test_result_without_oracle_has_no_oracle_stats(self):
        config = paper_system_config(mechanism="None", nrh=4, num_cores=1)
        spec = AttackSpec.create("single_sided", {"hammer_count": 50})
        result = simulate(config, [spec.compile()])
        assert "oracle_escaped" not in result.mitigation_stats
