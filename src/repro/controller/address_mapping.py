"""Physical-address to DRAM-coordinate mappings.

The paper's main evaluation uses the MOP (Minimalist Open Page) address
mapping (Table 2); the storage / related-work discussion also mentions
RoBaRaCoCh, and Appendix C evaluates ABACuS with ABACuS's own mapping.  All
three are implemented here as bit-field permutations of the physical address,
which keeps them trivially bijective (verified by property-based tests).

A mapping is described by the order of address fields from the least
significant bit upwards; every field's width is derived from the DRAM
organization.

Every mapping is *channel-aware*: with a multi-channel
:class:`~repro.dram.organization.DramOrganization` the ``channel`` field
consumes ``log2(channels)`` address bits (zero bits -- and therefore the
exact single-channel layout -- when ``channels == 1``).  Two channel
placements are offered per base mapping:

* the default (``"MOP"``, ``"RoBaRaCoCh"``, ``"ABACuS"``) interleaves
  channels at cache-line granularity -- the channel bits sit directly above
  the line offset, so consecutive lines alternate channels and a streaming
  core spreads its bandwidth across every channel, and
* a row-interleaved variant (``"MOP-RI"``, ``"RoBaRaCoCh-RI"``,
  ``"ABACuS-RI"``) places the channel bits above the row bits, so each
  channel owns large contiguous regions -- useful for per-channel isolation
  studies (e.g. pinning an attacker and its victims to different channels).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.dram.organization import DramAddress, DramOrganization


def _bits_for(count: int) -> int:
    """Number of address bits needed to index ``count`` items."""
    if count <= 0:
        raise ValueError("count must be positive")
    return max(0, math.ceil(math.log2(count)))


#: Field names understood by :class:`AddressMapping`.
FIELDS = ("offset", "column_low", "column_high", "bank", "bankgroup", "rank", "row", "channel")


@dataclass(frozen=True)
class AddressMapping:
    """A bijective physical-address to DRAM-coordinate mapping.

    Attributes:
        organization: the DRAM geometry being addressed.
        field_order: field names from least to most significant bit.
        name: human-readable mapping name.
        column_low_bits: how many column bits sit below the bank bits
            (0 for RoBaRaCoCh, >0 for MOP-style mappings).
    """

    organization: DramOrganization
    field_order: Tuple[str, ...]
    name: str
    column_low_bits: int = 0

    def __post_init__(self) -> None:
        # Decode (once per LLC miss) and encode walk per-field plans
        # precomputed here instead of rebuilding the width table per call.
        # ``object.__setattr__`` because the dataclass is frozen; the plans
        # are derived state, not fields (equality/repr are unaffected).
        widths = self.field_widths()
        shifts: Dict[str, int] = {}
        masks: Dict[str, int] = {}
        # (index into FIELDS, shift, limit) in field_order, so the range
        # checks run, and fail, in the order of the address bits.
        encode_plan: List[Tuple[int, int, int]] = []
        shift = 0
        for field in self.field_order:
            width = widths[field]
            shifts[field] = shift
            masks[field] = (1 << width) - 1
            encode_plan.append((FIELDS.index(field), shift, 1 << width))
            shift += width
        plan = tuple(
            (shifts[field], masks[field])
            for field in (
                "channel", "rank", "bankgroup", "bank", "row",
                "column_high", "column_low",
            )
        )
        object.__setattr__(self, "_decode_plan", plan)
        object.__setattr__(self, "_encode_plan", tuple(encode_plan))
        object.__setattr__(self, "_column_low_width", widths["column_low"])

    def field_widths(self) -> Dict[str, int]:
        """Bit width of every field for this organization."""
        org = self.organization
        column_bits = _bits_for(org.columns)
        column_low = min(self.column_low_bits, column_bits)
        return {
            "offset": _bits_for(org.cacheline_bytes),
            "column_low": column_low,
            "column_high": column_bits - column_low,
            "bank": _bits_for(org.banks_per_group),
            "bankgroup": _bits_for(org.bankgroups),
            "rank": _bits_for(org.ranks),
            "row": _bits_for(org.rows),
            "channel": _bits_for(org.channels),
        }

    @property
    def address_bits(self) -> int:
        """Total number of physical address bits consumed by the mapping."""
        return sum(self.field_widths().values())

    def decode(self, address: int) -> DramAddress:
        """Decode a physical byte address into DRAM coordinates."""
        if address < 0:
            raise ValueError("address must be non-negative")
        (
            (ch_shift, ch_mask),
            (ra_shift, ra_mask),
            (bg_shift, bg_mask),
            (ba_shift, ba_mask),
            (ro_shift, ro_mask),
            (ch_hi_shift, ch_hi_mask),
            (ch_lo_shift, ch_lo_mask),
        ) = self._decode_plan
        column = (
            ((address >> ch_hi_shift) & ch_hi_mask) << self._column_low_width
        ) | ((address >> ch_lo_shift) & ch_lo_mask)
        return DramAddress(
            channel=(address >> ch_shift) & ch_mask,
            rank=(address >> ra_shift) & ra_mask,
            bankgroup=(address >> bg_shift) & bg_mask,
            bank=(address >> ba_shift) & ba_mask,
            row=(address >> ro_shift) & ro_mask,
            column=column,
        )

    def encode(self, dram: DramAddress) -> int:
        """Encode DRAM coordinates back into a physical byte address.

        Raises ``ValueError`` when a field falls outside ``[0, 1 << width)``.
        """
        column = dram.column
        low_width = self._column_low_width
        values = (  # in FIELDS order
            0, column & ((1 << low_width) - 1), column >> low_width,
            dram.bank, dram.bankgroup, dram.rank, dram.row, dram.channel,
        )
        address = 0
        for index, shift, limit in self._encode_plan:
            value = values[index]
            if not 0 <= value < limit:
                field = FIELDS[index]
                if value < 0:
                    coordinate = field.partition("_")[0]  # column_low/high -> column
                    raise ValueError(
                        f"{coordinate} coordinate {getattr(dram, coordinate)} is negative"
                    )
                raise ValueError(
                    f"{field} value {value} does not fit in {limit.bit_length() - 1} bits"
                )
            address |= value << shift
        return address


def mop_mapping(org: DramOrganization, mop_width_bits: int = 2) -> AddressMapping:
    """Minimalist Open Page mapping (MOP), the paper's default (Table 2).

    Consecutive cache lines first fill a small number of columns (the MOP
    group), then interleave across banks, bank groups and ranks, and only
    then move to the next column group / row.  This balances row-buffer
    locality and bank-level parallelism.
    """
    return AddressMapping(
        organization=org,
        field_order=(
            "offset",
            "channel",
            "column_low",
            "bank",
            "bankgroup",
            "rank",
            "column_high",
            "row",
        ),
        name="MOP",
        column_low_bits=mop_width_bits,
    )


def robarracoch_mapping(org: DramOrganization) -> AddressMapping:
    """RoBaRaCoCh: row | bank | rank | column | channel (MSB to LSB)."""
    return AddressMapping(
        organization=org,
        field_order=(
            "offset",
            "channel",
            "column_low",
            "column_high",
            "rank",
            "bank",
            "bankgroup",
            "row",
        ),
        name="RoBaRaCoCh",
        column_low_bits=0,
    )


def abacus_mapping(org: DramOrganization) -> AddressMapping:
    """ABACuS's address mapping (Appendix C).

    Cache blocks interleave across all banks before moving to the next
    column, so consecutive blocks of a page land on the *same row address* in
    different banks -- the property ABACuS's sibling counters rely on, and
    which also lowers the row-conflict rate of the baseline.
    """
    return AddressMapping(
        organization=org,
        field_order=(
            "offset",
            "channel",
            "bank",
            "bankgroup",
            "rank",
            "column_low",
            "column_high",
            "row",
        ),
        name="ABACuS",
        column_low_bits=0,
    )


def row_interleaved(base: AddressMapping) -> AddressMapping:
    """The row-interleaved channel variant of ``base``.

    The ``channel`` field moves from just above the line offset to the most
    significant position (above ``row``), so each channel owns contiguous
    address regions instead of alternating at cache-line granularity.  The
    permutation stays bijective, so decode/encode round-trips are preserved
    for every channel count.
    """
    reordered = tuple(f for f in base.field_order if f != "channel") + ("channel",)
    return AddressMapping(
        organization=base.organization,
        field_order=reordered,
        name=f"{base.name}-RI",
        column_low_bits=base.column_low_bits,
    )


#: Base mapping constructors, by name.
_BASE_MAPPINGS = {
    "MOP": mop_mapping,
    "RoBaRaCoCh": robarracoch_mapping,
    "ABACuS": abacus_mapping,
}

#: All mapping names accepted by :func:`mapping_by_name`: every base mapping
#: plus its row-interleaved ``-RI`` channel variant.
MAPPING_NAMES: Tuple[str, ...] = tuple(_BASE_MAPPINGS) + tuple(
    f"{name}-RI" for name in _BASE_MAPPINGS
)


def mapping_by_name(name: str, org: DramOrganization) -> AddressMapping:
    """Look up a mapping constructor by name.

    ``-RI`` suffixed names select the row-interleaved channel placement of
    the corresponding base mapping (see :func:`row_interleaved`).
    """
    base_name, _, suffix = name.partition("-")
    if base_name in _BASE_MAPPINGS and suffix == "RI":
        return row_interleaved(_BASE_MAPPINGS[base_name](org))
    if name not in _BASE_MAPPINGS:
        raise ValueError(
            f"unknown address mapping {name!r}; expected one of {sorted(MAPPING_NAMES)}"
        )
    return _BASE_MAPPINGS[name](org)
