"""DDR5 timing parameters, with and without PRAC.

The Chronus paper's central observation about PRAC (Table 1) is that updating
the per-row activation counter while a row is being closed changes several
DRAM timing parameters for the DDR5-3200AN speed bin:

==============  ==================  ===============
Parameter        DDR5 without PRAC   DDR5 with PRAC
==============  ==================  ===============
tRAS             32 ns               16 ns
tRP              15 ns               36 ns
tRC              47 ns               52 ns
tRTP             7.5 ns              5 ns
tWR              30 ns               10 ns
==============  ==================  ===============

Chronus' Concurrent Counter Update (CCU) restores the non-PRAC timings because
the counter lives in a separate subarray and is updated in parallel with the
data-row access.

The nanosecond tables ``BASE_NS`` and ``PRAC_NS`` are the one statement of
these values: the simulator runs on :class:`TimingParams`, which the factory
functions below convert to DRAM clock cycles with the speed bin's clock
period, and the §5 security analysis (:mod:`repro.analysis.security`) reads
the nanoseconds directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

#: The "no event" cycle of every wake hint: the refresh scheduler's, the
#: controller's, each core's and the simulator's, whose deadlock check
#: compares against it.
FAR_FUTURE = 1 << 62


def ns_to_cycles(ns: float, tck_ns: float) -> int:
    """Convert a duration in nanoseconds to a (rounded-up) cycle count."""
    if ns < 0:
        raise ValueError(f"duration must be non-negative, got {ns}")
    return int(math.ceil(ns / tck_ns - 1e-9))


@dataclass(frozen=True)
class TimingParams:
    """DRAM timing parameters expressed in DRAM clock cycles.

    Attributes mirror the JEDEC parameter names used in the paper.  Only the
    parameters the simulator enforces are listed; all are per-bank unless
    noted otherwise.
    """

    #: Clock period in nanoseconds (DDR5-3200 => 0.625 ns).
    tck_ns: float

    # --- Row timings ------------------------------------------------------
    #: ACT to PRE minimum delay (same bank).
    tRAS: int
    #: PRE to ACT minimum delay (same bank).
    tRP: int
    #: ACT to ACT minimum delay (same bank).
    tRC: int
    #: ACT to RD/WR minimum delay (same bank).
    tRCD: int
    #: RD to PRE minimum delay (same bank).
    tRTP: int
    #: End of a write burst to PRE minimum delay (write recovery).
    tWR: int

    # --- Column timings ---------------------------------------------------
    #: RD command to data (CAS latency).
    tCL: int
    #: WR command to data (CAS write latency).
    tCWL: int
    #: Burst length in cycles on the data bus.
    tBL: int
    #: Column-to-column delay (same bank group).
    tCCD: int

    # --- Inter-bank timings -----------------------------------------------
    #: ACT to ACT minimum delay across banks (row-to-row delay).
    tRRD: int
    #: Four-activate window.
    tFAW: int

    # --- Refresh ----------------------------------------------------------
    #: Average periodic refresh interval.
    tREFI: int
    #: Refresh cycle time (bank blocked after REF).
    tRFC: int
    #: Refresh window (every row refreshed once per window).
    tREFW: int

    # --- Read-disturbance management (RFM / PRAC back-off) -----------------
    #: Refresh-management latency (bank blocked after RFM).
    tRFM: int
    #: Window of normal traffic after the back-off signal is asserted.
    tABOACT: int
    #: Latency from the PRE that triggers the back-off to the controller
    #: observing the alert_n signal.
    tBackOffLatency: int

    #: True if these timings model a PRAC-enabled device (counter updated in
    #: the data array while the row closes).
    prac_enabled: bool = False

    #: Free-form label, e.g. ``"DDR5-3200AN"``.
    name: str = "DDR5"

    def ns(self, cycles: int) -> float:
        """Convert a cycle count back to nanoseconds."""
        return cycles * self.tck_ns

    def as_dict(self) -> Dict[str, int]:
        """Return the timing parameters as a plain dictionary (cycles)."""
        return {
            key: getattr(self, key)
            for key in (
                "tRAS", "tRP", "tRC", "tRCD", "tRTP", "tWR",
                "tCL", "tCWL", "tBL", "tCCD", "tRRD", "tFAW",
                "tREFI", "tRFC", "tREFW", "tRFM", "tABOACT",
                "tBackOffLatency",
            )
        }

    def with_overrides(self, **kwargs: int) -> "TimingParams":
        """Return a copy with the given parameters replaced."""
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# DDR5-3200AN presets
# ---------------------------------------------------------------------------

#: Clock period of the DDR5-3200 speed bin (1600 MHz command clock).
DDR5_3200_TCK_NS = 0.625

#: Baseline (non-PRAC) timing values in nanoseconds, per the paper (Table 1)
#: and typical JESD79-5c values for parameters the paper does not list.  The
#: security analysis reads tRC, tRFM, tREFW and tABOACT from here.
BASE_NS = {
    "tRAS": 32.0,
    "tRP": 15.0,
    "tRC": 47.0,
    "tRCD": 16.0,
    "tRTP": 7.5,
    "tWR": 30.0,
    "tCL": 16.0,
    "tCWL": 14.0,
    "tBL": 5.0,
    "tCCD": 5.0,
    "tRRD": 5.0,
    "tFAW": 20.0,
    "tREFI": 3900.0,
    "tRFC": 295.0,
    "tREFW": 32_000_000.0,
    "tRFM": 350.0,
    "tABOACT": 180.0,
    "tBackOffLatency": 5.0,
}

#: Timing deltas when PRAC is enabled (Table 1 of the paper); the security
#: analysis reads PRAC's tRC from here.
PRAC_NS = {
    "tRAS": 16.0,
    "tRP": 36.0,
    "tRC": 52.0,
    "tRTP": 5.0,
    "tWR": 10.0,
}

#: Timing deltas used by the *previous* (buggy) version of the paper, where
#: tRAS / tRTP / tWR were not reduced (Appendix E, Table 4).  Kept so the
#: Table 4 experiment can quantify the effect of the fix.
_PRAC_OLD_NS = {
    "tRP": 36.0,
    "tRC": 52.0,
}


def _build(ns_values: Dict[str, float], *, prac: bool, name: str) -> TimingParams:
    cycles = {key: ns_to_cycles(value, DDR5_3200_TCK_NS) for key, value in ns_values.items()}
    return TimingParams(tck_ns=DDR5_3200_TCK_NS, prac_enabled=prac, name=name, **cycles)


def ddr5_3200an(prac: bool = False, *, legacy_prac_timings: bool = False) -> TimingParams:
    """Return the DDR5-3200AN timing preset.

    Args:
        prac: if True, return the PRAC-enabled timings (Table 1, right column).
        legacy_prac_timings: if True (and ``prac``), return the timings used by
            the pre-erratum version of the paper where tRAS/tRTP/tWR were not
            reduced (Appendix E).  Used only by the Table 4 experiment.

    Returns:
        A frozen :class:`TimingParams` instance.
    """
    if not prac:
        if legacy_prac_timings:
            raise ValueError("legacy_prac_timings requires prac=True")
        return _build(BASE_NS, prac=False, name="DDR5-3200AN")
    ns_values = dict(BASE_NS)
    ns_values.update(_PRAC_OLD_NS if legacy_prac_timings else PRAC_NS)
    name = "DDR5-3200AN+PRAC(old)" if legacy_prac_timings else "DDR5-3200AN+PRAC"
    return _build(ns_values, prac=prac, name=name)


def timing_table_rows() -> list[dict]:
    """Return the rows of the paper's Table 1 (parameter, no-PRAC ns, PRAC ns).

    Used by the Table 1 benchmark to print the reproduced table.
    """
    rows = []
    for param in ("tRAS", "tRP", "tRC", "tRTP", "tWR"):
        rows.append(
            {
                "parameter": param,
                "no_prac_ns": BASE_NS[param],
                "prac_ns": PRAC_NS[param],
            }
        )
    return rows
