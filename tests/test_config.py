"""Tests for the system configuration objects."""

import pytest

from repro.system.config import appendix_e_system_config, paper_system_config


class TestSystemConfig:
    def test_paper_defaults_match_table2(self):
        config = paper_system_config()
        assert config.num_cores == 4
        assert config.issue_width == 4
        assert config.window_size == 128
        assert config.llc_size_bytes == 8 * 1024 * 1024
        assert config.llc_associativity == 8
        assert config.read_queue_size == 64
        assert config.scheduler_cap == 4
        assert config.address_mapping == "MOP"
        assert config.organization.total_banks == 64
        assert config.organization.rows == 65536

    def test_with_mechanism(self):
        config = paper_system_config().with_mechanism("Chronus", nrh=64)
        assert config.mechanism == "Chronus"
        assert config.nrh == 64

    def test_with_mechanism_keeps_nrh_when_not_given(self):
        config = paper_system_config(nrh=256).with_mechanism("PRAC-4")
        assert config.nrh == 256

    def test_with_overrides(self):
        config = paper_system_config().with_overrides(num_cores=8, max_cycles=7)
        assert config.num_cores == 8
        assert config.max_cycles == 7

    def test_appendix_e_config(self):
        config = appendix_e_system_config()
        assert config.num_cores == 8
        assert config.llc_size_bytes > 4 * paper_system_config().llc_size_bytes

    def test_config_is_frozen(self):
        with pytest.raises(Exception):
            paper_system_config().num_cores = 2

    def test_clock_ratio_matches_paper_frequencies(self):
        # 4.2 GHz cores over a 1.6 GHz DRAM command clock.
        assert paper_system_config().clock_ratio == pytest.approx(4.2 / 1.6)
