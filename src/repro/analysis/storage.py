"""Storage-overhead models (Fig. 11 and Fig. 13).

Every mechanism exposes its storage cost through
``MitigationMechanism.storage_overhead_bits``; this module instantiates the
mechanisms for the storage-study module geometry (64 banks, 128 K rows per
bank) and tabulates the per-location (DRAM / SRAM / CAM) overheads as a
function of the RowHammer threshold, exactly as the paper's storage figures
do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.dram.organization import STORAGE_STUDY_ORGANIZATION, DramOrganization


#: Mechanisms included in Fig. 11.
FIG11_MECHANISMS: tuple[str, ...] = ("Chronus", "PRAC-4", "Graphene", "Hydra", "PRFM")

#: Mechanisms included in Fig. 13 (Appendix C).
FIG13_MECHANISMS: tuple[str, ...] = ("Chronus", "ABACuS")

#: RowHammer thresholds swept in the storage figures.
DEFAULT_NRH_VALUES: tuple[int, ...] = (1024, 512, 256, 128, 64, 32, 20)


@dataclass(frozen=True)
class StorageOverhead:
    """Storage overhead of one (mechanism, N_RH) point."""

    mechanism: str
    nrh: int
    dram_bytes: float
    sram_bytes: float
    cam_bytes: float

    @property
    def total_bytes(self) -> float:
        return self.dram_bytes + self.sram_bytes + self.cam_bytes

    @property
    def cpu_bytes(self) -> float:
        """Storage kept on the CPU / memory-controller side."""
        return self.sram_bytes + self.cam_bytes

    @property
    def total_mib(self) -> float:
        return self.total_bytes / (1024 * 1024)


def storage_overhead_bytes(
    mechanism: str,
    nrh: int,
    organization: DramOrganization = STORAGE_STUDY_ORGANIZATION,
) -> StorageOverhead:
    """Storage overhead of ``mechanism`` at threshold ``nrh``."""
    # Imported lazily to avoid a circular import: the mechanism modules use
    # repro.analysis.security for their secure-configuration defaults.
    from repro.core.factory import build_mechanism

    setup = build_mechanism(mechanism, nrh=nrh, num_banks=organization.total_banks)
    dram_bits = 0
    sram_bits = 0
    cam_bits = 0
    for component in setup.mechanisms():
        bits = component.storage_overhead_bits(
            num_banks=organization.total_banks, rows_per_bank=organization.rows
        )
        dram_bits += bits.get("dram_bits", 0)
        sram_bits += bits.get("sram_bits", 0)
        cam_bits += bits.get("cam_bits", 0)
    return StorageOverhead(
        mechanism=mechanism,
        nrh=nrh,
        dram_bytes=dram_bits / 8,
        sram_bytes=sram_bits / 8,
        cam_bytes=cam_bits / 8,
    )


def storage_overhead_table(
    mechanisms: Sequence[str] = FIG11_MECHANISMS,
    nrh_values: Sequence[int] = DEFAULT_NRH_VALUES,
    organization: DramOrganization = STORAGE_STUDY_ORGANIZATION,
) -> List[StorageOverhead]:
    """Tabulate storage overheads for a set of mechanisms and thresholds."""
    table = []
    for mechanism in mechanisms:
        for nrh in nrh_values:
            table.append(storage_overhead_bytes(mechanism, nrh, organization))
    return table
