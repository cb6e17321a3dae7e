"""Tests for PRFM (periodic refresh management)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.prfm import PRFM
from repro.experiments.runner import default_mixes
from repro.experiments.sweep import attack_job, execute_job
from repro.system.config import paper_system_config


class TestConfiguration:
    def test_default_threshold_secure(self):
        prfm = PRFM(nrh=1024, num_banks=4)
        assert prfm.is_secure
        assert prfm.rfm_threshold >= 2

    def test_threshold_shrinks_with_nrh(self):
        assert PRFM(nrh=64, num_banks=4).rfm_threshold < PRFM(nrh=1024, num_banks=4).rfm_threshold

    def test_explicit_threshold(self):
        assert PRFM(nrh=1024, num_banks=4, rfm_threshold=75).rfm_threshold == 75

    def test_insecure_fallback(self):
        prfm = PRFM(nrh=4, num_banks=4)
        assert not prfm.is_secure
        assert prfm.rfm_threshold == 2

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            PRFM(nrh=1024, num_banks=0)
        with pytest.raises(ValueError):
            PRFM(nrh=1024, num_banks=4, rfm_threshold=0)

    def test_does_not_require_prac_timings(self):
        assert PRFM.requires_prac_timings is False


class TestRfmRequests:
    def test_rfm_needed_after_threshold_activations(self):
        prfm = PRFM(nrh=1024, num_banks=2, rfm_threshold=3)
        for cycle in range(2):
            prfm.on_activate(0, cycle, cycle)
        assert prfm.rfm_pending_banks() == []
        prfm.on_activate(0, 99, 2)
        assert prfm.rfm_pending_banks() == [0]
        # Activations past the threshold do not list the bank twice.
        prfm.on_activate(0, 99, 3)
        assert prfm.rfm_pending_banks() == [0]

    def test_acknowledge_resets_counter(self):
        prfm = PRFM(nrh=1024, num_banks=1, rfm_threshold=2)
        prfm.on_activate(0, 1, 0)
        prfm.on_activate(0, 2, 1)
        assert prfm.rfm_pending_banks() == [0]
        prfm.acknowledge_rfm(0, 10)
        assert prfm.rfm_pending_banks() == []
        assert prfm.bank_counter(0) == 0
        assert prfm.stats.rfm_commands == 1
        assert prfm.stats.preventive_refresh_rows == prfm.victim_rows_per_aggressor

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=200))
    def test_pending_banks_match_counter_model(self, ops):
        """The sorted list is the one record: banks at RFMth, each once."""
        prfm = PRFM(nrh=1024, num_banks=4, rfm_threshold=3)
        counters = [0] * 4
        for cycle, (acknowledge, bank) in enumerate(ops):
            if acknowledge:
                prfm.acknowledge_rfm(bank, cycle)
                counters[bank] = 0
            else:
                prfm.on_activate(bank, 7, cycle)
                counters[bank] += 1
            expected = [b for b, count in enumerate(counters) if count >= 3]
            assert prfm.rfm_pending_banks() == expected

    def test_counters_per_bank_independent(self):
        prfm = PRFM(nrh=1024, num_banks=2, rfm_threshold=5)
        prfm.on_activate(0, 1, 0)
        prfm.on_activate(1, 1, 0)
        assert prfm.bank_counter(0) == 1
        assert prfm.bank_counter(1) == 1


class TestStorage:
    def test_one_counter_per_bank(self):
        prfm = PRFM(nrh=1024, num_banks=64)
        bits = prfm.storage_overhead_bits(num_banks=64, rows_per_bank=131072)
        assert bits["sram_bits"] == 64 * 11
        assert "dram_bits" not in bits

    def test_smaller_counters_at_lower_nrh(self):
        big = PRFM(nrh=1024, num_banks=64).storage_overhead_bits(64, 131072)["sram_bits"]
        small = PRFM(nrh=32, num_banks=64, rfm_threshold=3).storage_overhead_bits(64, 131072)["sram_bits"]
        assert small < big


class TestRfmAccounting:
    """Every RFM the controller issues is counted once by the mechanism.

    In PRAC+PRFM the on-die PRAC part serves (and counts) the RFMs PRFM
    requests, so PRFM must not count them again.  N_RH = 32 makes every
    mechanism issue RFMs under the §11 attack.
    """

    @pytest.mark.parametrize(
        "mechanism",
        ["PRFM", "PRAC+PRFM", "PRAC-1", "PRAC-2", "PRAC-4", "Chronus", "Chronus-PB"],
    )
    def test_rfm_commands_match_issued_rfms(self, mechanism):
        benign = default_mixes(1)[0].applications[:3]
        result = execute_job(
            attack_job(paper_system_config(), benign, mechanism, 32, 200, 3000)
        )
        issued = result.command_counts["RFM"]
        assert issued > 0
        assert result.mitigation_stats["rfm_commands"] == issued
        assert (
            result.mitigation_stats["preventive_refresh_rows"]
            == result.controller_stats["preventive_refresh_rows"]
        )
