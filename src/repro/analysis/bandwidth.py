"""Memory performance (denial-of-memory-service) attack analysis (§11, App. D).

An attacker can abuse preventive refreshes to hog DRAM bandwidth: by
repeatedly driving rows to the back-off threshold it forces the device to
spend time in RFM windows instead of serving requests.  Appendix D proves
that the pattern evaluated in §11 -- trigger a back-off with the minimum
number of activations, absorb the resulting preventive refreshes, repeat --
maximises the fraction of time spent on preventive refreshes:

    DBC(P_ADV) = (NRef * tRFM) / (NRef * tRFM + NBO * tRC)

Because PRAC must be configured with a tiny back-off threshold (``NBO = 1``
at ``N_RH = 20``) and issues ``NRef = 4`` RFMs per back-off, an attacker can
theoretically consume 94 % of DRAM throughput; Chronus, which can safely use
``NBO = 16`` and issues one RFM per aggressor, bounds this at 32 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.security import (
    chronus_secure_backoff_threshold,
    secure_prac_backoff_threshold,
)
from repro.dram.timing import BASE_NS, PRAC_NS


def dram_bandwidth_consumption(
    nref: int, nbo: int, trfm_ns: float, trc_ns: float
) -> float:
    """Worst-case fraction of DRAM time consumed by preventive refreshes.

    Implements Expression 3 of the paper (the DBC of the adversarial pattern
    P_ADV), which Appendix D proves is the maximum achievable under the three
    properties shared by PRAC and Chronus.
    """
    if nref <= 0 or nbo <= 0:
        raise ValueError("nref and nbo must be positive")
    if trfm_ns <= 0 or trc_ns <= 0:
        raise ValueError("timings must be positive")
    refresh_time = nref * trfm_ns
    trigger_time = nbo * trc_ns
    return refresh_time / (refresh_time + trigger_time)


def prac_max_bandwidth_consumption(nrh: int = 20, nref: int = 4) -> float:
    """Theoretical DRAM-throughput loss under PRAC (§11).

    Uses PRAC's secure back-off threshold for the given ``N_RH`` (``NBO = 1``
    at ``N_RH = 20``) and PRAC's timing parameters.
    """
    nbo = secure_prac_backoff_threshold(nrh, nref)
    return dram_bandwidth_consumption(
        nref=nref, nbo=nbo, trfm_ns=BASE_NS["tRFM"], trc_ns=PRAC_NS["tRC"]
    )


def chronus_max_bandwidth_consumption(nrh: int = 20) -> float:
    """Theoretical DRAM-throughput loss under Chronus (§11).

    Chronus triggers one RFM per back-off (footnote: additional RFMs per
    back-off only help the defender) and can be configured with the much
    larger secure threshold ``NBO = min(N_RH - Anormal - 1, 256)``.
    """
    nbo = chronus_secure_backoff_threshold(nrh)
    return dram_bandwidth_consumption(
        nref=1, nbo=nbo, trfm_ns=BASE_NS["tRFM"], trc_ns=BASE_NS["tRC"]
    )


@dataclass(frozen=True)
class BandwidthAttackBound:
    """A (mechanism, N_RH) point of the §11 theoretical analysis."""

    mechanism: str
    nrh: int
    nbo: int
    nref: int
    consumption: float


def bandwidth_attack_table(nrh_values=(128, 20)) -> list[BandwidthAttackBound]:
    """Tabulate the theoretical bounds for PRAC-4 and Chronus."""
    rows = []
    for nrh in nrh_values:
        prac_nbo = secure_prac_backoff_threshold(nrh, 4)
        rows.append(
            BandwidthAttackBound(
                mechanism="PRAC-4",
                nrh=nrh,
                nbo=prac_nbo,
                nref=4,
                consumption=dram_bandwidth_consumption(
                    4, prac_nbo, BASE_NS["tRFM"], PRAC_NS["tRC"]
                ),
            )
        )
        chronus_nbo = chronus_secure_backoff_threshold(nrh)
        rows.append(
            BandwidthAttackBound(
                mechanism="Chronus",
                nrh=nrh,
                nbo=chronus_nbo,
                nref=1,
                consumption=dram_bandwidth_consumption(
                    1, chronus_nbo, BASE_NS["tRFM"], BASE_NS["tRC"]
                ),
            )
        )
    return rows
