"""Multi-channel scale-out tests.

Covers the three load-bearing guarantees of the channel scale-out:

* the address mappings stay bijective for every (mapping, channel count)
  combination, including the row-interleaved ``-RI`` variants;
* per-channel stats aggregate into system totals exactly (the identities
  :func:`repro.system.metrics.aggregate_channel_stats` defines);
* the sweep cache keys of every pre-existing single-channel job are
  byte-identical (the ``channels`` knob rides on the DRAM organization), and
  a channel-targeted attack provably leaves other channels untouched.
"""

import dataclasses

import pytest

from repro.attacks.patterns import AttackSpec, retarget_channel
from repro.controller.address_mapping import (
    MAPPING_NAMES,
    mapping_by_name,
    mop_mapping,
    row_interleaved,
)
from repro.dram.organization import DramAddress, PAPER_ORGANIZATION
from repro.experiments.sweep import (
    alone_job,
    attack_search_job,
    baseline_job,
    execute_job,
    mechanism_job,
)
from repro.system.config import SystemConfig, paper_system_config
from repro.system.metrics import CHANNEL_COUNTER_KEYS, aggregate_channel_stats
from repro.system.simulator import simulate
from repro.workloads.mixes import build_mix_traces

CHANNEL_COUNTS = (1, 2, 4, 8)


def org_with_channels(channels):
    return PAPER_ORGANIZATION.with_channels(channels)


# --------------------------------------------------------------------------- #
# Channel-aware address mapping
# --------------------------------------------------------------------------- #

class TestChannelAwareMappings:
    def sample_addresses(self, org):
        """DRAM coordinates spanning every field's extremes."""
        coords = []
        for channel in range(org.channels):
            for rank in (0, org.ranks - 1):
                for bankgroup in (0, org.bankgroups - 1):
                    for bank in (0, org.banks_per_group - 1):
                        for row in (0, 1, org.rows - 1):
                            for column in (0, org.columns - 1):
                                coords.append(
                                    DramAddress(
                                        channel=channel,
                                        rank=rank,
                                        bankgroup=bankgroup,
                                        bank=bank,
                                        row=row,
                                        column=column,
                                    )
                                )
        return coords

    @pytest.mark.parametrize("name", MAPPING_NAMES)
    @pytest.mark.parametrize("channels", CHANNEL_COUNTS)
    def test_encode_decode_round_trip(self, name, channels):
        org = org_with_channels(channels)
        mapping = mapping_by_name(name, org)
        for dram in self.sample_addresses(org):
            address = mapping.encode(dram)
            decoded = mapping.decode(address)
            assert decoded == dram, f"{name} x{channels}: {dram} -> {address} -> {decoded}"

    @pytest.mark.parametrize("name", MAPPING_NAMES)
    @pytest.mark.parametrize("channels", CHANNEL_COUNTS)
    def test_decode_encode_round_trip(self, name, channels):
        org = org_with_channels(channels)
        mapping = mapping_by_name(name, org)
        step = 64 * 1017  # coprime-ish stride to sample diverse bit patterns
        for address in range(0, 1 << 24, step):
            aligned = (address // 64) * 64
            assert mapping.encode(mapping.decode(aligned)) == aligned

    @pytest.mark.parametrize("channels", (2, 4))
    def test_default_mapping_interleaves_consecutive_lines(self, channels):
        """Cache-line-interleaved placement: consecutive lines walk channels."""
        org = org_with_channels(channels)
        mapping = mop_mapping(org)
        decoded = [mapping.decode(line * 64).channel for line in range(2 * channels)]
        assert decoded == [line % channels for line in range(2 * channels)]

    @pytest.mark.parametrize("channels", (2, 4))
    def test_row_interleaved_mapping_gives_contiguous_regions(self, channels):
        """-RI placement: the channel is selected by the top address bits."""
        org = org_with_channels(channels)
        mapping = mapping_by_name("MOP-RI", org)
        region = 1 << (mapping.address_bits - mapping.field_widths()["channel"])
        for channel in range(channels):
            assert mapping.decode(channel * region).channel == channel
            assert mapping.decode(channel * region + region - 64).channel == channel

    def test_single_channel_field_consumes_no_bits(self):
        mapping = mop_mapping(org_with_channels(1))
        assert mapping.field_widths()["channel"] == 0

    def test_row_interleaved_of_base_mapping(self):
        base = mop_mapping(org_with_channels(2))
        derived = row_interleaved(base)
        assert derived.name == "MOP-RI"
        assert derived.field_order[-1] == "channel"
        assert derived.address_bits == base.address_bits

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="unknown address mapping"):
            mapping_by_name("MOP-XX", PAPER_ORGANIZATION)


# --------------------------------------------------------------------------- #
# Config knob and cache-key stability
# --------------------------------------------------------------------------- #

class TestChannelsKnob:
    def test_with_channels_and_property(self):
        config = paper_system_config()
        assert config.channels == 1
        scaled = config.with_channels(4)
        assert scaled.channels == 4
        assert scaled.organization.channels == 4
        # Everything else is untouched.
        assert scaled.with_channels(1) == config

    def test_with_overrides_accepts_channels(self):
        config = paper_system_config().with_overrides(channels=2, num_cores=2)
        assert config.channels == 2
        assert config.num_cores == 2

    def test_channels_is_not_a_config_field(self):
        """The knob rides on the organization: no new SystemConfig field may
        appear, or every pre-existing cache key would change."""
        assert "channels" not in {f.name for f in dataclasses.fields(SystemConfig)}

    @pytest.mark.parametrize("channels", (0, -1, 3, 6))
    def test_invalid_channel_count_rejected(self, channels):
        """Zero/negative counts and non-powers-of-two (which would decode
        addresses to non-existent channels) are rejected up front."""
        with pytest.raises(ValueError, match="positive power of two"):
            paper_system_config().with_channels(channels)

    def test_single_channel_cache_keys_are_byte_identical(self):
        """Golden keys recorded from the pre-scale-out implementation, then
        re-recorded once when ``blast_radius`` left ``SystemConfig`` and once
        when ``seed`` did (putting ``"seed": 0`` back into the config payload
        gives the previous keys)."""
        base = paper_system_config()
        apps = ("429.mcf", "401.bzip2")
        assert baseline_job(base, apps, 400).key == (
            "289faa7ecc0783814094fde68ceb801c9427f482bdf05ea9d2182de5a50295e4"
        )
        assert mechanism_job(base, apps, "PRAC-4", 64, 400).key == (
            "e5554dec4e8ceec82798abc2621d49efc46990d036b3b5a03689d806a69cdf5b"
        )
        assert alone_job(base, "429.mcf", 400).key == (
            "dc0f303eba5ffa918d0d930c13bc896b9a332ebb413c934816e2f499c0ada2e7"
        )
        assert attack_search_job(
            base, "Chronus", 64, AttackSpec(pattern="single_sided")
        ).key == (
            "de8d0040cdf775a5baf14094e717bc155d48cd901db5ea538f8589eea40c4b6a"
        )

    def test_channel_count_changes_cache_keys(self):
        apps = ("429.mcf", "401.bzip2")
        one = baseline_job(paper_system_config(), apps, 400)
        two = baseline_job(paper_system_config().with_channels(2), apps, 400)
        assert one.key != two.key


# --------------------------------------------------------------------------- #
# Per-channel -> system metrics aggregation
# --------------------------------------------------------------------------- #

def _record(**overrides):
    record = {key: 0 for key in CHANNEL_COUNTER_KEYS}
    record.update(
        {"command_counts": {}, "energy_breakdown": {}, "energy_nj": 0.0}
    )
    record.update(overrides)
    return record


class TestAggregateChannelStats:
    def test_counters_sum(self):
        totals = aggregate_channel_stats(
            [
                _record(reads_served=10, total_read_latency=100, rfms=1),
                _record(reads_served=30, total_read_latency=500, rfms=2),
            ]
        )
        assert totals["reads_served"] == 40
        assert totals["rfms"] == 3
        assert totals["average_read_latency"] == pytest.approx(600 / 40)

    def test_command_counts_and_energy_merge(self):
        totals = aggregate_channel_stats(
            [
                _record(
                    command_counts={"ACT": 5, "RD": 7},
                    energy_breakdown={"act": 1.5},
                    energy_nj=2.5,
                ),
                _record(
                    command_counts={"ACT": 3, "REF": 2},
                    energy_breakdown={"act": 0.5, "ref": 1.0},
                    energy_nj=1.5,
                ),
            ]
        )
        assert totals["command_counts"] == {"ACT": 8, "RD": 7, "REF": 2}
        assert totals["energy_breakdown"] == {"act": 2.0, "ref": 1.0}
        assert totals["energy_nj"] == pytest.approx(4.0)

    def test_zero_reads_average_latency(self):
        assert aggregate_channel_stats([_record()])["average_read_latency"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_channel_stats([])


class TestSimulationAggregationIdentities:
    @pytest.fixture(scope="class")
    def two_channel_result(self):
        config = paper_system_config(mechanism="Chronus", nrh=64).with_overrides(
            num_cores=2, channels=2
        )
        traces = build_mix_traces(
            ["429.mcf", "470.lbm"], accesses_per_core=400,
            organization=config.organization,
        )
        return simulate(config, traces)

    def test_result_reports_two_channels(self, two_channel_result):
        assert two_channel_result.num_channels == 2
        assert [r["channel"] for r in two_channel_result.channel_stats] == [0, 1]

    def test_counter_identities(self, two_channel_result):
        result = two_channel_result
        for key in (
            "reads_served", "writes_served", "row_hits", "row_misses",
            "row_conflicts", "refreshes", "rfms", "backoffs_observed",
            "preventive_refresh_rows",
        ):
            per_channel = sum(r[key] for r in result.channel_stats)
            assert per_channel == result.controller_stats[key], key

    def test_command_count_identities(self, two_channel_result):
        result = two_channel_result
        summed = {}
        for record in result.channel_stats:
            for mnemonic, count in record["command_counts"].items():
                summed[mnemonic] = summed.get(mnemonic, 0) + count
        assert summed == result.command_counts

    def test_energy_identities(self, two_channel_result):
        result = two_channel_result
        assert sum(r["energy_nj"] for r in result.channel_stats) == pytest.approx(
            result.energy_nj
        )
        summed = {}
        for record in result.channel_stats:
            for component, value in record["energy_breakdown"].items():
                summed[component] = summed.get(component, 0.0) + value
        assert summed == pytest.approx(result.energy_breakdown)

    def test_average_latency_is_read_weighted(self, two_channel_result):
        result = two_channel_result
        total_latency = sum(r["total_read_latency"] for r in result.channel_stats)
        total_reads = sum(r["reads_served"] for r in result.channel_stats)
        assert result.controller_stats["average_read_latency"] == pytest.approx(
            total_latency / total_reads
        )

    def test_both_channels_served_traffic(self, two_channel_result):
        assert all(
            record["reads_served"] > 0 for record in two_channel_result.channel_stats
        )

    def test_single_channel_record_matches_system_totals(self):
        config = paper_system_config().with_overrides(num_cores=2)
        traces = build_mix_traces(["429.mcf", "470.lbm"], accesses_per_core=300)
        result = simulate(config, traces)
        assert result.num_channels == 1
        (record,) = result.channel_stats
        assert record["reads_served"] == result.controller_stats["reads_served"]
        assert record["energy_nj"] == result.energy_nj
        assert record["command_counts"] == result.command_counts


# --------------------------------------------------------------------------- #
# Multi-channel simulation behaviour
# --------------------------------------------------------------------------- #

class TestMultiChannelSimulation:
    @pytest.mark.parametrize("mechanism", ("None", "Chronus", "PRAC-4", "PARA"))
    def test_two_channel_run_completes(self, mechanism):
        config = paper_system_config(mechanism=mechanism, nrh=128).with_overrides(
            num_cores=2, channels=2
        )
        traces = build_mix_traces(["549.fotonik3d", "429.mcf"], accesses_per_core=300)
        result = simulate(config, traces)
        assert result.cycles < config.max_cycles
        assert all(ipc > 0 for ipc in result.core_ipcs)

    def test_row_interleaved_mapping_runs(self):
        config = paper_system_config().with_overrides(
            num_cores=2, channels=2, address_mapping="MOP-RI"
        )
        traces = build_mix_traces(["429.mcf", "470.lbm"], accesses_per_core=300)
        result = simulate(config, traces)
        assert result.cycles > 0
        assert sum(r["reads_served"] for r in result.channel_stats) > 0

    def test_two_channels_are_deterministic(self):
        config = paper_system_config(mechanism="PARA", nrh=64).with_overrides(
            num_cores=2, channels=2
        )
        traces = build_mix_traces(["429.mcf", "470.lbm"], accesses_per_core=300)
        first = simulate(config, traces)
        second = simulate(config, traces)
        assert first.cycles == second.cycles
        assert first.channel_stats == second.channel_stats


# --------------------------------------------------------------------------- #
# Channel-targeted attacks: cross-channel isolation
# --------------------------------------------------------------------------- #

class TestChannelTargetedAttacks:
    def test_retarget_channel_moves_every_access(self):
        org = org_with_channels(2)
        mapping = mop_mapping(org)
        spec = AttackSpec.create("single_sided", {"hammer_count": 10})
        trace = spec.compile(organization=org)
        moved = retarget_channel(trace, mapping, 1)
        assert all(mapping.decode(e.address).channel == 1 for e in moved)
        # Bank/row geometry is preserved.
        for original, shifted in zip(trace, moved):
            before = mapping.decode(original.address)
            after = mapping.decode(shifted.address)
            assert (before.rank, before.bankgroup, before.bank, before.row) == (
                after.rank, after.bankgroup, after.bank, after.row
            )

    def test_retarget_rejects_out_of_range_channel(self):
        org = org_with_channels(2)
        mapping = mop_mapping(org)
        trace = AttackSpec.create("single_sided", {"hammer_count": 4}).compile(
            organization=org
        )
        with pytest.raises(ValueError, match="out of range"):
            retarget_channel(trace, mapping, 2)

    def test_channel_zero_spec_payload_unchanged(self):
        """Channel 0 must not appear in the payload (cache-key stability)."""
        spec = AttackSpec(pattern="single_sided")
        assert "channel" not in spec.as_payload()
        targeted = AttackSpec(pattern="single_sided", channel=1)
        assert targeted.as_payload()["channel"] == 1
        assert "@ch1" in targeted.label

    def test_attack_on_one_channel_leaves_other_untouched(self):
        """The red-team isolation proof: a channel-1 attack disturbs channel 1
        only; the ground-truth oracle sees zero activated rows on channel 0."""
        base = paper_system_config().with_channels(2)
        spec = AttackSpec.create("single_sided", {"hammer_count": 300}, channel=1)
        job = attack_search_job(base, "None", 64, spec)
        result = execute_job(job)
        stats = result.mitigation_stats
        assert stats["oracle_peak_channel"] == 1
        assert stats["oracle_ch1_max_disturbance"] > 0
        assert stats["oracle_ch1_max_disturbance"] == stats["oracle_max_disturbance"]
        assert stats["oracle_ch0_max_disturbance"] == 0
        assert stats["oracle_ch0_rows_tracked"] == 0
        # Channel 0 never even saw a demand activation.
        assert result.channel_stats[0]["command_counts"].get("ACT", 0) == 0

    def test_mismatched_oracle_channel_count_rejected(self):
        """An oracle built for the wrong channel count would silently drop
        the per-channel isolation stats; the simulator rejects it loudly."""
        from repro.attacks.oracle import DisturbanceOracle
        from repro.system.simulator import SystemSimulator

        config = paper_system_config().with_overrides(num_cores=1, channels=2)
        traces = build_mix_traces(["429.mcf"], accesses_per_core=10)
        with pytest.raises(ValueError, match="oracle tracks 1 channel"):
            SystemSimulator(config, traces, oracle=DisturbanceOracle(nrh=64))

    def test_attack_defaults_to_channel_zero(self):
        base = paper_system_config().with_channels(2)
        spec = AttackSpec.create("single_sided", {"hammer_count": 300})
        result = execute_job(attack_search_job(base, "None", 64, spec))
        stats = result.mitigation_stats
        assert stats["oracle_peak_channel"] == 0
        assert stats["oracle_ch1_rows_tracked"] == 0
