"""DRAM organization: channels, ranks, bank groups, banks, rows, columns.

The paper's simulated system (Table 2) uses a single DDR5 channel with two
ranks, eight bank groups per rank, four banks per bank group (64 banks total)
and 64K rows per bank.  Storage-overhead experiments (Fig. 11 / Fig. 13) use a
module with 64 banks and 128K rows per bank.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, slots=True)
class DramAddress:
    """A fully decoded DRAM address."""

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column: int

    def flat_bank(self, org: "DramOrganization") -> int:
        """Return the flat bank index of this address within its channel."""
        return org.flat_bank_index(self.rank, self.bankgroup, self.bank)


@dataclass(frozen=True)
class DramOrganization:
    """Geometry of a DRAM channel.

    Attributes:
        channels: number of memory channels.
        ranks: ranks per channel.
        bankgroups: bank groups per rank.
        banks_per_group: banks per bank group.
        rows: rows per bank.
        columns: column (cache-line) positions per row.
        row_size_bytes: bytes stored in one DRAM row (per rank).
        cacheline_bytes: bytes transferred per column access.
    """

    channels: int = 1
    ranks: int = 2
    bankgroups: int = 8
    banks_per_group: int = 4
    rows: int = 65536
    columns: int = 128
    row_size_bytes: int = 8192
    cacheline_bytes: int = 64

    def __post_init__(self) -> None:
        # The address mappings allocate log2(channels) bits to the channel
        # field; a non-power-of-two count would decode addresses to channels
        # that do not exist.
        if self.channels <= 0 or self.channels & (self.channels - 1):
            raise ValueError(
                f"channels must be a positive power of two, got {self.channels}"
            )

    @property
    def banks_per_rank(self) -> int:
        """Banks contained in one rank."""
        return self.bankgroups * self.banks_per_group

    @property
    def total_banks(self) -> int:
        """Banks contained in one channel (across all ranks)."""
        return self.ranks * self.banks_per_rank

    @property
    def total_rows(self) -> int:
        """Rows contained in one channel."""
        return self.total_banks * self.rows

    @property
    def capacity_bytes(self) -> int:
        """Total channel capacity in bytes."""
        return self.total_rows * self.row_size_bytes

    def with_channels(self, channels: int) -> "DramOrganization":
        """Return a copy of this geometry scaled to ``channels`` channels.

        ``channels`` must be a positive power of two (validated on
        construction): the channel field of every address mapping is a bit
        field, so other counts would decode to non-existent channels.
        """
        return replace(self, channels=channels)

    def flat_bank_index(self, rank: int, bankgroup: int, bank: int) -> int:
        """Flatten a (rank, bankgroup, bank) triple to a single index."""
        self._check_range("rank", rank, self.ranks)
        self._check_range("bankgroup", bankgroup, self.bankgroups)
        self._check_range("bank", bank, self.banks_per_group)
        return (rank * self.bankgroups + bankgroup) * self.banks_per_group + bank

    def unflatten_bank_index(self, flat: int) -> tuple[int, int, int]:
        """Inverse of :meth:`flat_bank_index`."""
        self._check_range("flat bank", flat, self.total_banks)
        bank = flat % self.banks_per_group
        rest = flat // self.banks_per_group
        bankgroup = rest % self.bankgroups
        rank = rest // self.bankgroups
        return rank, bankgroup, bank

    def validate_address(self, addr: DramAddress) -> None:
        """Raise ``ValueError`` if any field of ``addr`` is out of range."""
        self._check_range("channel", addr.channel, self.channels)
        self._check_range("rank", addr.rank, self.ranks)
        self._check_range("bankgroup", addr.bankgroup, self.bankgroups)
        self._check_range("bank", addr.bank, self.banks_per_group)
        self._check_range("row", addr.row, self.rows)
        self._check_range("column", addr.column, self.columns)

    @staticmethod
    def _check_range(name: str, value: int, bound: int) -> None:
        if not 0 <= value < bound:
            raise ValueError(f"{name} {value} out of range [0, {bound})")


#: System configuration used in the paper's main evaluation (Table 2).
PAPER_ORGANIZATION = DramOrganization(
    channels=1,
    ranks=2,
    bankgroups=8,
    banks_per_group=4,
    rows=65536,
    columns=128,
    row_size_bytes=8192,
    cacheline_bytes=64,
)

#: Module geometry used for the storage-overhead study (Fig. 11 / Fig. 13):
#: 64 banks with 128K rows per bank.
STORAGE_STUDY_ORGANIZATION = DramOrganization(
    channels=1,
    ranks=2,
    bankgroups=8,
    banks_per_group=4,
    rows=131072,
    columns=128,
    row_size_bytes=2048,
    cacheline_bytes=64,
)
