"""Tests for DRAM address mappings."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.controller.address_mapping import (
    MAPPING_NAMES,
    abacus_mapping,
    mapping_by_name,
    mop_mapping,
    robarracoch_mapping,
)
from repro.dram.organization import PAPER_ORGANIZATION, DramAddress


ALL_MAPPINGS = [
    mop_mapping(PAPER_ORGANIZATION),
    robarracoch_mapping(PAPER_ORGANIZATION),
    abacus_mapping(PAPER_ORGANIZATION),
]


class TestBasicDecoding:
    def test_address_bits_cover_capacity(self):
        for mapping in ALL_MAPPINGS:
            assert 2 ** mapping.address_bits == PAPER_ORGANIZATION.capacity_bytes

    def test_decode_zero(self):
        for mapping in ALL_MAPPINGS:
            dram = mapping.decode(0)
            assert (dram.channel, dram.rank, dram.bankgroup, dram.bank, dram.row, dram.column) == (
                0, 0, 0, 0, 0, 0,
            )

    def test_decode_validates_against_organization(self):
        for mapping in ALL_MAPPINGS:
            dram = mapping.decode(123456789)
            PAPER_ORGANIZATION.validate_address(dram)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            mop_mapping(PAPER_ORGANIZATION).decode(-1)

    def test_mapping_by_name(self):
        assert mapping_by_name("MOP", PAPER_ORGANIZATION).name == "MOP"
        assert mapping_by_name("RoBaRaCoCh", PAPER_ORGANIZATION).name == "RoBaRaCoCh"
        assert mapping_by_name("ABACuS", PAPER_ORGANIZATION).name == "ABACuS"
        with pytest.raises(ValueError):
            mapping_by_name("bogus", PAPER_ORGANIZATION)


class TestMappingProperties:
    def test_same_line_same_coordinates(self):
        mapping = mop_mapping(PAPER_ORGANIZATION)
        a = mapping.decode(0x12340)
        b = mapping.decode(0x12340 + 8)  # same 64-byte line
        assert a == b

    def test_abacus_mapping_interleaves_lines_across_banks(self):
        """Consecutive cache lines land in different banks, same row address."""
        mapping = abacus_mapping(PAPER_ORGANIZATION)
        line = PAPER_ORGANIZATION.cacheline_bytes
        first = mapping.decode(0)
        second = mapping.decode(line)
        assert (first.bank, first.bankgroup) != (second.bank, second.bankgroup)
        assert first.row == second.row

    def test_robarracoch_keeps_consecutive_lines_in_same_row(self):
        mapping = robarracoch_mapping(PAPER_ORGANIZATION)
        line = PAPER_ORGANIZATION.cacheline_bytes
        first = mapping.decode(0)
        second = mapping.decode(line)
        assert first.row == second.row
        assert first.bank == second.bank

    def test_mop_interleaves_after_column_group(self):
        mapping = mop_mapping(PAPER_ORGANIZATION, mop_width_bits=2)
        line = PAPER_ORGANIZATION.cacheline_bytes
        coords = [mapping.decode(i * line) for i in range(8)]
        # The first four lines stay in the same bank (the MOP group), the
        # fifth moves to another bank.
        assert len({(c.bank, c.bankgroup, c.rank) for c in coords[:4]}) == 1
        assert (coords[4].bank, coords[4].bankgroup) != (coords[0].bank, coords[0].bankgroup)


@settings(max_examples=200, deadline=None)
@given(
    address=st.integers(min_value=0, max_value=PAPER_ORGANIZATION.capacity_bytes - 1),
    mapping_index=st.integers(min_value=0, max_value=2),
)
def test_encode_decode_roundtrip(address, mapping_index):
    mapping = ALL_MAPPINGS[mapping_index]
    line_address = (address // 64) * 64
    dram = mapping.decode(line_address)
    assert mapping.encode(dram) == line_address


@settings(max_examples=100, deadline=None)
@given(address=st.integers(min_value=0, max_value=PAPER_ORGANIZATION.capacity_bytes - 1))
def test_distinct_lines_decode_to_distinct_coordinates(address):
    mapping = mop_mapping(PAPER_ORGANIZATION)
    line = (address // 64) * 64
    other = (line + 64) % PAPER_ORGANIZATION.capacity_bytes
    assert mapping.decode(line) != mapping.decode(other)


COORDINATES = ("channel", "rank", "bankgroup", "bank", "row", "column")


def reference_encode(mapping, dram):
    """The field-by-field encoder that the precomputed plan replaced.

    It rebuilds the width table on every call and checks only the upper
    bound of each field.
    """
    widths = mapping.field_widths()
    low_mask = (1 << widths["column_low"]) - 1
    values = {
        "offset": 0,
        "column_low": dram.column & low_mask,
        "column_high": dram.column >> widths["column_low"],
        "bank": dram.bank,
        "bankgroup": dram.bankgroup,
        "rank": dram.rank,
        "row": dram.row,
        "channel": dram.channel,
    }
    address = 0
    shift = 0
    for field in mapping.field_order:
        width = widths[field]
        if values[field] >= (1 << width):
            raise ValueError(f"{field} value {values[field]} does not fit in {width} bits")
        address |= values[field] << shift
        shift += width
    return address


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(MAPPING_NAMES),
    channels=st.sampled_from((1, 2, 4)),
)
def test_encode_matches_the_field_by_field_reference(data, name, channels):
    """Same address, or the same ``ValueError``, for coordinates in and out of range."""
    org = PAPER_ORGANIZATION.with_channels(channels)
    mapping = mapping_by_name(name, org)
    limits = (
        org.channels, org.ranks, org.bankgroups, org.banks_per_group, org.rows, org.columns
    )
    dram = DramAddress(**{
        coordinate: data.draw(st.integers(0, 2 * limit), label=coordinate)
        for coordinate, limit in zip(COORDINATES, limits)
    })
    try:
        expected = reference_encode(mapping, dram)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            mapping.encode(dram)
        assert str(raised.value) == str(error)
    else:
        assert mapping.encode(dram) == expected


class TestEncodeRangeCheck:
    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("name", MAPPING_NAMES)
    @pytest.mark.parametrize("coordinate", COORDINATES)
    def test_negative_coordinate_rejected(self, coordinate, name, channels):
        mapping = mapping_by_name(name, PAPER_ORGANIZATION.with_channels(channels))
        coordinates = dict.fromkeys(COORDINATES, 0)
        coordinates[coordinate] = -1
        with pytest.raises(ValueError, match=f"^{coordinate} coordinate -1 is negative$"):
            mapping.encode(DramAddress(**coordinates))
