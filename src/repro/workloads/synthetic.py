"""Synthetic benign workloads.

The paper evaluates 57 single-core applications from SPEC CPU2006,
SPEC CPU2017, TPC, MediaBench and YCSB, grouped into High / Medium / Low
memory intensity by their row-buffer misses per kilo-instruction (RBMPKI).
The original memory traces are not redistributable, so this module
synthesises deterministic traces whose first-order memory behaviour --
memory intensity, working-set size (and therefore LLC hit rate), row-buffer
locality, bank-level parallelism, and read/write mix -- matches each
application's published character.  The relative overheads of the mitigation
mechanisms depend on exactly these statistics, which is why the substitution
preserves the paper's trends.  A profile has no per-row hotness parameter:
the only skew is a fixed hot eighth of the working set, so a benign trace
does not concentrate its activations on a few rows the way an aggressor does.

Each application is described by an :class:`AppProfile`; ``generate_trace``
turns a profile into a :class:`~repro.cpu.trace.Trace` with a configurable
number of memory accesses.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cpu.trace import Trace, TraceEntry


#: Cache-line size assumed by the generators (matches the system config).
LINE_SIZE = 64

#: Default page/row span used to translate "row locality" into address
#: locality: consecutive lines in the same 8 KiB region tend to map to the
#: same DRAM row under the MOP mapping.
ROW_SPAN_BYTES = 8192


@dataclass(frozen=True)
class AppProfile:
    """Statistical description of one application's memory behaviour.

    Attributes:
        name: application name (kept identical to the paper's figures).
        suite: benchmark suite the name comes from.
        category: ``"H"``, ``"M"`` or ``"L"`` memory intensity class.
        apki: memory accesses per kilo-instruction, pre-LLC.
        working_set_kib: touched footprint in KiB (drives the LLC hit rate:
            footprints below the 8 MiB LLC are mostly cache resident).
        sequential_fraction: probability that an access continues the current
            sequential stream (high values create row-buffer locality).
        write_fraction: fraction of accesses that are stores.
    """

    name: str
    suite: str
    category: str
    apki: float
    working_set_kib: int
    sequential_fraction: float
    write_fraction: float


def _h(name: str, suite: str, apki: float, ws_mib: float, seq: float, wr: float) -> AppProfile:
    return AppProfile(name, suite, "H", apki, int(ws_mib * 1024), seq, wr)


def _m(name: str, suite: str, apki: float, ws_mib: float, seq: float, wr: float) -> AppProfile:
    return AppProfile(name, suite, "M", apki, int(ws_mib * 1024), seq, wr)


def _l(name: str, suite: str, apki: float, ws_mib: float, seq: float, wr: float) -> AppProfile:
    return AppProfile(name, suite, "L", apki, int(ws_mib * 1024), seq, wr)


#: The 57 single-core applications of the paper's evaluation (Fig. 7 names
#: plus the remaining medium / low intensity applications of the five
#: suites).  Profiles are synthetic but ranked to match published
#: memory-intensity characterisations.
APP_PROFILES: List[AppProfile] = [
    # ---- High memory intensity (RBMPKI >= 10) ---------------------------
    _h("429.mcf", "SPEC2006", 70.0, 1536, 0.15, 0.22),
    _h("470.lbm", "SPEC2006", 55.0, 400, 0.75, 0.45),
    _h("462.libquantum", "SPEC2006", 50.0, 64, 0.92, 0.25),
    _h("549.fotonik3d", "SPEC2017", 48.0, 512, 0.70, 0.30),
    _h("459.GemsFDTD", "SPEC2006", 46.0, 700, 0.65, 0.33),
    _h("519.lbm", "SPEC2017", 52.0, 400, 0.75, 0.45),
    _h("434.zeusmp", "SPEC2006", 38.0, 480, 0.60, 0.30),
    _h("510.parest", "SPEC2017", 36.0, 350, 0.45, 0.25),
    _h("437.leslie3d", "SPEC2006", 35.0, 160, 0.68, 0.30),
    _h("483.xalancbmk", "SPEC2006", 32.0, 320, 0.25, 0.15),
    _h("482.sphinx3", "SPEC2006", 30.0, 140, 0.55, 0.10),
    _h("505.mcf", "SPEC2017", 42.0, 1800, 0.18, 0.22),
    _h("471.omnetpp", "SPEC2006", 28.0, 170, 0.20, 0.30),
    _h("tpch2", "TPC", 30.0, 512, 0.35, 0.12),
    _h("520.omnetpp", "SPEC2017", 26.0, 230, 0.20, 0.30),
    _h("tpch17", "TPC", 28.0, 480, 0.35, 0.12),
    _h("473.astar", "SPEC2006", 24.0, 180, 0.30, 0.25),
    _h("436.cactusADM", "SPEC2006", 22.0, 340, 0.55, 0.35),
    _h("jp2_encode", "MediaBench", 25.0, 96, 0.80, 0.40),
    _h("507.cactuBSSN", "SPEC2017", 21.0, 380, 0.55, 0.35),
    # ---- Medium memory intensity (2 <= RBMPKI < 10) ----------------------
    _m("450.soplex", "SPEC2006", 18.0, 60, 0.45, 0.20),
    _m("433.milc", "SPEC2006", 17.0, 72, 0.55, 0.30),
    _m("403.gcc", "SPEC2006", 14.0, 40, 0.35, 0.25),
    _m("523.xalancbmk", "SPEC2017", 15.0, 48, 0.25, 0.15),
    _m("531.deepsjeng", "SPEC2017", 12.0, 36, 0.30, 0.22),
    _m("557.xz", "SPEC2017", 13.0, 52, 0.40, 0.28),
    _m("462.soplex-pds", "SPEC2006", 14.5, 56, 0.45, 0.20),
    _m("tpcc64", "TPC", 16.0, 44, 0.30, 0.35),
    _m("tpch6", "TPC", 15.0, 64, 0.50, 0.10),
    _m("ycsb_aserver", "YCSB", 13.0, 40, 0.28, 0.35),
    _m("ycsb_bserver", "YCSB", 12.0, 36, 0.28, 0.20),
    _m("ycsb_cserver", "YCSB", 11.0, 34, 0.28, 0.05),
    _m("ycsb_dserver", "YCSB", 11.5, 38, 0.30, 0.25),
    _m("ycsb_eserver", "YCSB", 12.5, 42, 0.32, 0.15),
    _m("h264_encode", "MediaBench", 10.0, 28, 0.70, 0.35),
    _m("jp2_decode", "MediaBench", 11.0, 30, 0.75, 0.30),
    _m("445.gobmk", "SPEC2006", 9.0, 26, 0.30, 0.25),
    _m("464.h264ref", "SPEC2006", 9.5, 24, 0.65, 0.30),
    # ---- Low memory intensity (RBMPKI < 2) --------------------------------
    _l("401.bzip2", "SPEC2006", 8.0, 6, 0.50, 0.30),
    _l("456.hmmer", "SPEC2006", 6.0, 4, 0.60, 0.25),
    _l("458.sjeng", "SPEC2006", 5.0, 5, 0.30, 0.22),
    _l("435.gromacs", "SPEC2006", 6.5, 5, 0.55, 0.28),
    _l("444.namd", "SPEC2006", 5.5, 4, 0.60, 0.20),
    _l("481.wrf", "SPEC2006", 7.0, 6, 0.55, 0.28),
    _l("447.dealII", "SPEC2006", 6.0, 5, 0.45, 0.22),
    _l("454.calculix", "SPEC2006", 5.0, 4, 0.55, 0.25),
    _l("465.tonto", "SPEC2006", 4.5, 3, 0.45, 0.22),
    _l("400.perlbench", "SPEC2006", 4.0, 4, 0.35, 0.25),
    _l("500.perlbench", "SPEC2017", 4.0, 4, 0.35, 0.25),
    _l("502.gcc", "SPEC2017", 6.0, 6, 0.35, 0.25),
    _l("525.x264", "SPEC2017", 5.5, 5, 0.70, 0.30),
    _l("538.imagick", "SPEC2017", 4.5, 3, 0.65, 0.30),
    _l("541.leela", "SPEC2017", 3.5, 3, 0.30, 0.20),
    _l("511.povray", "SPEC2017", 3.0, 2, 0.45, 0.22),
    _l("526.blender", "SPEC2017", 6.0, 6, 0.50, 0.28),
    _l("gs", "MediaBench", 4.0, 3, 0.60, 0.30),
    _l("h264_decode", "MediaBench", 4.5, 3, 0.70, 0.28),
]

#: Index by name for fast lookup.
_PROFILES_BY_NAME: Dict[str, AppProfile] = {p.name: p for p in APP_PROFILES}


def profile_by_name(name: str) -> AppProfile:
    """Return the profile of an application by name."""
    if name not in _PROFILES_BY_NAME:
        raise KeyError(f"unknown application {name!r}")
    return _PROFILES_BY_NAME[name]


def app_names(category: Optional[str] = None) -> List[str]:
    """Names of all applications, optionally filtered by intensity class."""
    if category is None:
        return [p.name for p in APP_PROFILES]
    category = category.upper()
    if category not in ("H", "M", "L"):
        raise ValueError("category must be 'H', 'M' or 'L'")
    return [p.name for p in APP_PROFILES if p.category == category]


def apps_by_category() -> Dict[str, List[str]]:
    """Map intensity class to the list of application names."""
    return {category: app_names(category) for category in ("H", "M", "L")}


def generate_trace(
    profile: AppProfile | str,
    num_accesses: int = 20_000,
    seed: int = 0,
    base_address: int = 0,
) -> Trace:
    """Generate a deterministic synthetic trace for an application profile.

    Args:
        profile: an :class:`AppProfile` or an application name.
        num_accesses: number of memory accesses to generate.
        seed: seed mixed with the application name for reproducibility.
        base_address: added to every generated address, so different cores of
            a mix touch disjoint physical regions.

    Returns:
        A :class:`Trace` named after the application.
    """
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    if num_accesses <= 0:
        raise ValueError("num_accesses must be positive")

    # zlib.crc32 keeps the trace independent of PYTHONHASHSEED, so every
    # process generates bit-identical workloads.
    rng = random.Random(zlib.crc32(profile.name.encode("utf-8")) ^ seed)
    working_set_bytes = profile.working_set_kib * 1024
    working_set_lines = max(1, working_set_bytes // LINE_SIZE)
    mean_gap = max(1.0, 1000.0 / profile.apki)

    entries: List[TraceEntry] = []
    current_line = rng.randrange(working_set_lines)
    for _ in range(num_accesses):
        if rng.random() < profile.sequential_fraction:
            current_line = (current_line + 1) % working_set_lines
        else:
            # Jump to a random line; bias towards a hot subset to create the
            # reuse every real application exhibits.
            if rng.random() < 0.5:
                hot_lines = max(1, working_set_lines // 8)
                current_line = rng.randrange(hot_lines)
            else:
                current_line = rng.randrange(working_set_lines)
        gap = int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 1 else 1
        address = base_address + current_line * LINE_SIZE
        entries.append(
            TraceEntry(
                gap_instructions=gap,
                address=address,
                is_write=rng.random() < profile.write_fraction,
            )
        )
    return Trace(profile.name, entries)
