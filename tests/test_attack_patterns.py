"""Tests for the attack-pattern registry and AttackSpec compilation."""

import hashlib

import pytest

from repro.attacks.patterns import (
    ATTACK_PATTERNS,
    AttackSpec,
    default_search_specs,
    pattern_by_name,
    pattern_names,
    performance_attack_trace,
    wave_attack_addresses,
    wave_attack_trace,
)
from repro.controller.address_mapping import AddressMapping, mop_mapping
from repro.dram.organization import PAPER_ORGANIZATION


MAPPING = mop_mapping(PAPER_ORGANIZATION)


def decoded_banks_and_rows(trace):
    decoded = [MAPPING.decode(entry.address) for entry in trace]
    banks = {address.flat_bank(PAPER_ORGANIZATION) for address in decoded}
    rows = {address.row for address in decoded}
    return banks, rows


class TestRegistry:
    def test_expected_patterns_registered(self):
        assert set(pattern_names()) == {
            "single_sided",
            "double_sided",
            "many_sided",
            "wave",
            "rfm_dodge",
            "refresh_sync",
            "perf_attack",
        }

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError, match="unknown attack pattern"):
            pattern_by_name("rowpress")

    def test_every_pattern_compiles_with_defaults(self):
        for name in pattern_names():
            trace = AttackSpec(pattern=name).compile()
            assert trace.memory_accesses > 0
            assert all(not entry.is_write for entry in trace)

    def test_every_search_variant_compiles(self):
        for spec in default_search_specs():
            assert spec.compile().memory_accesses > 0

    def test_default_search_specs_cover_all_patterns(self):
        specs = default_search_specs()
        assert {spec.pattern for spec in specs} == set(pattern_names())
        variants = sum(len(p.search_variants) for p in ATTACK_PATTERNS.values())
        assert len(specs) == len(pattern_names()) + variants


class TestAttackSpec:
    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            AttackSpec.create("wave", {"warp_factor": 9})

    def test_params_normalised_sorted(self):
        spec = AttackSpec(pattern="wave", params=(("rounds", 2), ("num_rows", 4)))
        assert spec.params == (("num_rows", 4), ("rounds", 2))

    def test_specs_with_same_resolution_are_equal_and_hashable(self):
        first = AttackSpec.create("wave", {"rounds": 2, "num_rows": 4})
        second = AttackSpec(pattern="wave", params=(("rounds", 2), ("num_rows", 4)))
        assert first == second
        assert hash(first) == hash(second)

    def test_resolved_params_fill_defaults(self):
        spec = AttackSpec.create("wave", {"rounds": 3})
        resolved = spec.resolved_params
        assert resolved["rounds"] == 3
        assert resolved["num_rows"] == pattern_by_name("wave").default_params["num_rows"]

    def test_payload_records_full_resolution(self):
        payload = AttackSpec.create("wave", {"rounds": 3}).as_payload()
        assert payload["pattern"] == "wave"
        assert set(payload["params"]) == set(pattern_by_name("wave").default_params)

    def test_label(self):
        assert AttackSpec(pattern="wave").label == "wave"
        assert AttackSpec.create("wave", {"rounds": 3}).label == "wave(rounds=3)"

    def test_compile_deterministic(self):
        first = AttackSpec(pattern="perf_attack", seed=7).compile()
        second = AttackSpec(pattern="perf_attack", seed=7).compile()
        assert [e.address for e in first] == [e.address for e in second]

    def test_perf_attack_seed_changes_rows(self):
        first = AttackSpec(pattern="perf_attack", seed=1).compile()
        second = AttackSpec(pattern="perf_attack", seed=2).compile()
        assert [e.address for e in first] != [e.address for e in second]


class TestPatternShapes:
    def test_single_sided_two_rows_one_bank(self):
        trace = AttackSpec.create(
            "single_sided", {"hammer_count": 10, "bank_index": 3}
        ).compile()
        banks, rows = decoded_banks_and_rows(trace)
        assert banks == {3}
        assert len(rows) == 2

    def test_double_sided_straddles_victim(self):
        trace = AttackSpec.create(
            "double_sided", {"pair_rounds": 5, "victim_row": 40}
        ).compile()
        _, rows = decoded_banks_and_rows(trace)
        assert rows == {39, 41}

    def test_many_sided_row_count(self):
        trace = AttackSpec.create(
            "many_sided", {"num_sides": 6, "rounds": 4}
        ).compile()
        _, rows = decoded_banks_and_rows(trace)
        assert len(rows) == 6
        assert trace.memory_accesses == 24

    def test_rfm_dodge_spreads_over_banks(self):
        trace = AttackSpec.create(
            "rfm_dodge", {"num_banks": 5, "rows_per_bank": 2, "rounds": 3}
        ).compile()
        banks, _ = decoded_banks_and_rows(trace)
        assert len(banks) == 5

    def test_refresh_sync_has_gaps_between_bursts(self):
        trace = AttackSpec.create(
            "refresh_sync",
            {"burst_pairs": 4, "num_bursts": 3, "gap_instructions": 999},
        ).compile()
        gaps = [entry.gap_instructions for entry in trace if entry.gap_instructions]
        assert gaps == [999, 999]

    def test_out_of_range_row_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            AttackSpec.create(
                "single_sided", {"row": PAPER_ORGANIZATION.rows}
            ).compile()


def trace_digest(trace):
    """First 16 hex digits of a SHA-256 over each entry's (gap, address, is_write)."""
    digest = hashlib.sha256()
    for entry in trace:
        digest.update(
            f"{entry.gap_instructions},{entry.address},{int(entry.is_write)};".encode()
        )
    return digest.hexdigest()[:16]


#: Compiled-trace digests of every default search spec, by (label, channels).
#: The ``@ch1`` specs go through ``retarget_channel``.
SPEC_TRACE_DIGESTS = {
    ("single_sided", 1): "26f7729a7aa82396",
    ("single_sided(hammer_count=2400)", 1): "50310ff63cab865d",
    ("double_sided", 1): "5069c856cea0d466",
    ("many_sided", 1): "6e52a4c8e74c2a13",
    ("many_sided(num_sides=16,rounds=150)", 1): "82acefa7d633f949",
    ("wave", 1): "0bcc70232d763774",
    ("wave(num_rows=96,rounds=12)", 1): "ffd42e5615eacb78",
    ("rfm_dodge", 1): "316e3f21c9a41da4",
    ("refresh_sync", 1): "3dc94a5057a1e3df",
    ("perf_attack", 1): "7190612630b6112a",
    ("single_sided", 2): "5caeb1b5485e0d8d",
    ("single_sided(hammer_count=2400)", 2): "f1aaa5c76e457683",
    ("double_sided", 2): "c051a082b53524d6",
    ("many_sided", 2): "6d1399b2bea8a177",
    ("many_sided(num_sides=16,rounds=150)", 2): "5e77d1009247f4c3",
    ("wave", 2): "bb09340391a3b5b2",
    ("wave(num_rows=96,rounds=12)", 2): "ae4f52e1dae51612",
    ("rfm_dodge", 2): "e07397eedc761da8",
    ("refresh_sync", 2): "d4aaddc3f665cf4d",
    ("perf_attack", 2): "52d9bb27c4d413fd",
    ("single_sided@ch1", 2): "7e7593941c6ab71b",
    ("single_sided(hammer_count=2400)@ch1", 2): "3df4630f2509c146",
    ("double_sided@ch1", 2): "6fb2b5ec55d9a37f",
    ("many_sided@ch1", 2): "f8fe24a084444c60",
    ("many_sided(num_sides=16,rounds=150)@ch1", 2): "267818d154145d98",
    ("wave@ch1", 2): "8477b32d01d5069b",
    ("wave(num_rows=96,rounds=12)@ch1", 2): "da5c502fc017328b",
    ("rfm_dodge@ch1", 2): "01e227946ffc9c90",
    ("refresh_sync@ch1", 2): "3ea560238fbcacbe",
    ("perf_attack@ch1", 2): "d68f1fe261acae5e",
}

#: ``performance_attack_trace`` digests by (num_accesses, seed); 800 is the
#: benchmark's attacker, 31 and 50 cut the 32-entry pattern mid-way.
PERF_ATTACK_DIGESTS = {
    (800, 0): "780cf61df253cfa6",
    (800, 1): "7d6d246994911d9d",
    (31, 0): "35d8c3c36f35b4f8",
    (50, 0): "f30d7e1e37e72faa",
}

SPECS_BY_CHANNELS = [
    (spec, channels)
    for channels, target in ((1, 0), (2, 0), (2, 1))
    for spec in default_search_specs(channel=target)
]


class TestCompiledTraces:
    """Compiled attack traces are pinned entry by entry, not just by shape."""

    @pytest.mark.parametrize(
        "spec, channels", SPECS_BY_CHANNELS,
        ids=[f"{spec.label}-{channels}ch" for spec, channels in SPECS_BY_CHANNELS],
    )
    def test_spec_trace_digest(self, spec, channels):
        organization = PAPER_ORGANIZATION.with_channels(channels)
        trace = spec.compile(organization=organization)
        assert trace_digest(trace) == SPEC_TRACE_DIGESTS[(spec.label, channels)]

    @pytest.mark.parametrize(
        "spec, channels", SPECS_BY_CHANNELS,
        ids=[f"{spec.label}-{channels}ch" for spec, channels in SPECS_BY_CHANNELS],
    )
    def test_trace_length_matches_compiled_trace(self, spec, channels):
        """The registry's length is what the builder produces, so bounds can
        be checked without building the trace."""
        organization = PAPER_ORGANIZATION.with_channels(channels)
        assert spec.trace_length(organization) == len(
            spec.compile(organization=organization)
        )

    @pytest.mark.parametrize("num_accesses, seed", sorted(PERF_ATTACK_DIGESTS))
    def test_performance_attack_trace_digest(self, num_accesses, seed):
        trace = performance_attack_trace(num_accesses=num_accesses, seed=seed)
        assert trace.memory_accesses == num_accesses
        assert trace_digest(trace) == PERF_ATTACK_DIGESTS[(num_accesses, seed)]


class TestEncodeOncePerAddress:
    """The repeating builders encode one period and repeat its entries."""

    @pytest.fixture
    def encode_calls(self, monkeypatch):
        calls = []
        encode = AddressMapping.encode

        def spy(mapping, dram):
            calls.append(dram)
            return encode(mapping, dram)

        monkeypatch.setattr(AddressMapping, "encode", spy)
        return calls

    def test_wave_encodes_one_round(self, encode_calls):
        trace = AttackSpec.create("wave", {"num_rows": 64, "rounds": 20}).compile()
        assert trace.memory_accesses == 2 * 64 * 20
        assert len(encode_calls) == 2 * 64

    def test_performance_attack_encodes_one_pattern(self, encode_calls):
        trace = performance_attack_trace(num_accesses=800)
        assert trace.memory_accesses == 800
        assert len(encode_calls) == 8 * 4  # rows_per_bank x num_banks


class TestWaveWrapAround:
    """The wave row set must fit in the bank (no silent modulo reuse)."""

    def test_addresses_raise_when_row_set_wraps(self):
        too_many = PAPER_ORGANIZATION.rows // 4 + 1
        with pytest.raises(ValueError, match="wrap"):
            wave_attack_addresses(too_many, row_stride=4)

    def test_addresses_raise_when_first_row_pushes_past_end(self):
        with pytest.raises(ValueError, match="does not fit"):
            wave_attack_addresses(16, row_stride=4, first_row=PAPER_ORGANIZATION.rows - 32)

    def test_largest_fitting_row_set_is_accepted_and_distinct(self):
        num_rows = PAPER_ORGANIZATION.rows // 4
        addresses = wave_attack_addresses(num_rows, row_stride=4)
        assert len(set(addresses)) == num_rows

    def test_trace_raises_when_row_set_wraps(self):
        with pytest.raises(ValueError, match="does not fit"):
            wave_attack_trace(num_rows=PAPER_ORGANIZATION.rows, rounds=1)

    def test_wave_spec_inherits_validation(self):
        with pytest.raises(ValueError, match="does not fit"):
            AttackSpec.create("wave", {"num_rows": PAPER_ORGANIZATION.rows}).compile()
