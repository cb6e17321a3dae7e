"""Wave-attack security analysis of PRFM, PRAC and Chronus (§5 and §8).

The *wave attack* (also called the *feinting attack*) hammers a large set of
decoy rows in a balanced way so that the mitigation mechanism can only
preventively refresh a small subset of them per preventive action.  The
attacker drops mitigated rows from subsequent rounds, so the last surviving
row accumulates the highest possible activation count.

This module implements:

* ``prfm_max_activations``  -- Eq. 1 of the paper (PRFM).
* ``prac_max_activations``  -- Eq. 2 of the paper (PRAC-N back-off).
* ``chronus_max_activations`` -- the closed-form bound of §8
  (``A(i) <= NBO + Anormal``).
* configuration sweeps reproducing Fig. 3a and Fig. 3b,
* the *secure configuration* selection used by the performance experiments
  (largest RFMth / NBO that keeps the attacker below ``N_RH``), and
* the Aggressor Tracking Table sizing rule (``Anormal + 1`` entries).

All durations are the Table 1 nanosecond values of :mod:`repro.dram.timing`
(``BASE_NS`` and ``PRAC_NS``), the same numbers the simulator converts to
cycles, so the analysis is independent of the simulator's clock
discretisation (matching the paper, which works in ns).

The Eq. 1 and Eq. 2 bounds are pure functions of their integer arguments
and are memoized per process (``functools.cache``), so the secure-threshold
search that every PRFM and PRAC channel of every job runs when it is built
evaluates each bound once per process.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.counters import CounterSubarray
from repro.dram.timing import BASE_NS, PRAC_NS

#: ``Anormal``: activations to a single row during the tABOACT window of
#: normal traffic, at PRAC's tRC.
ANORMAL_PRAC = int(BASE_NS["tABOACT"] // PRAC_NS["tRC"])

#: ``Anormal`` with Chronus, whose CCU restores the non-PRAC tRC.
ANORMAL_CHRONUS = int(BASE_NS["tABOACT"] // BASE_NS["tRC"])


# ---------------------------------------------------------------------------
# PRFM (periodic RFM) -- Eq. 1
# ---------------------------------------------------------------------------

@functools.cache
def prfm_max_activations(rfm_threshold: int, initial_rows: int) -> int:
    """Maximum activations a single row can receive under PRFM (Eq. 1).

    The attacker hammers every row of the starting set once per round.  The
    memory controller issues one RFM per ``rfm_threshold`` activations, and
    each RFM mitigates (refreshes the victims of) one aggressor row.  Rows
    whose victims were refreshed are dropped from later rounds.

    Args:
        rfm_threshold: bank activation threshold to issue an RFM (``RFMth``).
        initial_rows: starting row-set size ``|R1|``.

    Returns:
        The highest activation count any single row reaches before its
        victims are refreshed (bounded by the refresh window).
    """
    if rfm_threshold <= 0:
        raise ValueError("rfm_threshold must be positive")
    if initial_rows <= 0:
        raise ValueError("initial_rows must be positive")
    trc, trfm, trefw = BASE_NS["tRC"], BASE_NS["tRFM"], BASE_NS["tREFW"]

    remaining = initial_rows
    cumulative_acts = 0
    elapsed_ns = 0.0
    rounds_survived = 0

    while remaining > 0:
        # One round: each remaining row is activated once.
        round_acts = remaining
        rfms_this_round = (cumulative_acts + round_acts) // rfm_threshold - (
            cumulative_acts // rfm_threshold
        )
        round_time = round_acts * trc + rfms_this_round * trfm
        if elapsed_ns + round_time > trefw:
            # The refresh window closes before the round completes: victims
            # are periodically refreshed, ending the attack.
            break
        elapsed_ns += round_time
        cumulative_acts += round_acts
        rounds_survived += 1
        mitigated_total = cumulative_acts // rfm_threshold
        remaining = initial_rows - mitigated_total

    return rounds_survived


def prfm_security_sweep(
    rfm_thresholds: Sequence[int],
    initial_row_sizes: Sequence[int],
) -> Dict[int, Dict[int, int]]:
    """Reproduce Fig. 3a: max activations vs ``RFMth`` for several ``|R1|``.

    Returns ``{rfm_threshold: {initial_rows: max_acts}}``.
    """
    return {
        rfm_th: {r1: prfm_max_activations(rfm_th, r1) for r1 in initial_row_sizes}
        for rfm_th in rfm_thresholds
    }


# ---------------------------------------------------------------------------
# PRAC-N back-off -- Eq. 2
# ---------------------------------------------------------------------------

@functools.cache
def prac_max_activations(nbo: int, nref: int, initial_rows: int) -> int:
    """Maximum activations a single row can receive under PRAC-N (Eq. 2).

    The attacker first brings every row of the starting set to ``NBO - 1``
    activations (no back-off yet), then runs wave-attack rounds.  At least one
    row stays above ``NBO`` across rounds, so the device asserts back-offs as
    frequently as it can; each back-off period allows
    ``NDelay + tABOACT / tRC`` attacker activations and mitigates ``NRef``
    rows, where ``NDelay = NRef`` as the DDR5 specification ties them
    together.  The surviving row additionally receives ``Anormal``
    activations during the final window of normal traffic.

    Args:
        nbo: back-off threshold (absolute activation count).
        nref: RFM commands issued per back-off (PRAC-1/2/4).
        initial_rows: starting row-set size ``|R1|``.

    Returns:
        The highest activation count any single row reaches before its
        victims are refreshed.
    """
    if nbo <= 0:
        raise ValueError("nbo must be positive")
    if nref <= 0:
        raise ValueError("nref must be positive")
    if initial_rows <= 0:
        raise ValueError("initial_rows must be positive")
    trc, trfm, trefw = PRAC_NS["tRC"], BASE_NS["tRFM"], BASE_NS["tREFW"]
    window_acts = nref + BASE_NS["tABOACT"] / trc

    # Phase 0: initialise every row to NBO - 1 activations.
    init_acts = initial_rows * (nbo - 1)
    elapsed_ns = init_acts * trc
    if elapsed_ns > trefw:
        # The attacker cannot even complete initialisation before the
        # refresh window closes; scale the row set down implicitly by
        # reporting what the time budget allows.
        return min(nbo - 1 + ANORMAL_PRAC, int(trefw // trc))

    remaining = initial_rows
    cumulative_acts = 0
    rounds_survived = 0

    while remaining > 0:
        round_acts = remaining
        prev_backoffs = int(cumulative_acts / window_acts)
        new_backoffs = int((cumulative_acts + round_acts) / window_acts)
        backoffs_this_round = new_backoffs - prev_backoffs
        round_time = round_acts * trc + backoffs_this_round * nref * trfm
        if elapsed_ns + round_time > trefw:
            break
        elapsed_ns += round_time
        cumulative_acts += round_acts
        rounds_survived += 1
        mitigated_total = nref * int(cumulative_acts / window_acts)
        remaining = initial_rows - mitigated_total

    return (nbo - 1) + rounds_survived + ANORMAL_PRAC


def prac_security_sweep(
    backoff_thresholds: Sequence[int],
    nrefs: Sequence[int],
    initial_row_sizes: Sequence[int],
) -> Dict[int, Dict[int, int]]:
    """Reproduce Fig. 3b: worst-case max activations vs ``NBO`` per PRAC-N.

    For each (``NBO``, ``NRef``) pair, the worst case over all starting row
    set sizes is reported (matching the figure, which plots the worst-case
    ``|R1|``).

    Returns ``{nbo: {nref: worst_case_max_acts}}``.
    """
    sweep: Dict[int, Dict[int, int]] = {}
    for nbo in backoff_thresholds:
        sweep[nbo] = {}
        for nref in nrefs:
            sweep[nbo][nref] = max(
                prac_max_activations(nbo, nref, r1) for r1 in initial_row_sizes
            )
    return sweep


# ---------------------------------------------------------------------------
# Chronus -- §8 closed form
# ---------------------------------------------------------------------------

def chronus_max_activations(nbo: int) -> int:
    """Upper bound on activations to a single row under Chronus (§8).

    Chronus accurately tracks every row (P1), can trigger a back-off at any
    time (P2) and keeps the back-off asserted until every row above the
    threshold has been refreshed (P3), so a row can receive at most
    ``NBO + Anormal`` activations.
    """
    if nbo <= 0:
        raise ValueError("nbo must be positive")
    return nbo + ANORMAL_CHRONUS


def chronus_secure_backoff_threshold(nrh: int) -> int:
    """Largest secure back-off threshold for Chronus at a given ``N_RH``.

    Chronus is secure whenever ``NBO < N_RH - Anormal`` (§8).  The counter
    subarray stores ``CounterSubarray.counter_width_bits``-bit counters, so
    the threshold is additionally capped at ``2**counter_width_bits``.
    """
    if nrh <= 0:
        raise ValueError("nrh must be positive")
    nbo = min(nrh - ANORMAL_CHRONUS - 1, 2 ** CounterSubarray.counter_width_bits)
    if nbo < 1:
        raise ValueError(
            f"Chronus cannot be configured securely for N_RH={nrh} "
            f"(Anormal={ANORMAL_CHRONUS})"
        )
    return nbo


def att_required_entries(prac_timings: bool = False) -> int:
    """Minimum Aggressor Tracking Table size (§8).

    An attacker can force at most ``Anormal + 1`` rows to reach ``NBO``
    activations before the recovery period starts, so the ATT must hold at
    least that many entries.
    """
    return (ANORMAL_PRAC if prac_timings else ANORMAL_CHRONUS) + 1


# ---------------------------------------------------------------------------
# Secure-configuration selection (used by the performance experiments)
# ---------------------------------------------------------------------------

#: Starting row-set sizes used when searching for worst-case wave attacks
#: (matches the legend of Fig. 3a).
DEFAULT_ROW_SET_SIZES: Tuple[int, ...] = (2048, 4096, 8192, 16384, 32768, 65536)

#: Candidate RFM thresholds for PRFM (x-axis of Fig. 3a).
DEFAULT_RFM_THRESHOLDS: Tuple[int, ...] = (2, 3, 4, 8, 16, 32, 64, 80, 128, 256)

#: Candidate back-off thresholds for PRAC (x-axis of Fig. 3b).
DEFAULT_BACKOFF_THRESHOLDS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 64, 128, 256)


def _largest_secure(
    nrh: int,
    candidates: Sequence[int],
    max_activations: Callable[[int, int], int],
) -> Optional[int]:
    """The largest candidate whose wave attack stays below ``nrh``, or None.

    A candidate is secure when ``max_activations(candidate, r1) < nrh`` for
    every starting row-set size ``r1`` of :data:`DEFAULT_ROW_SET_SIZES`.
    The scan runs from the largest candidate down and stops at the first
    secure one, which is the maximum of the secure candidates by definition
    -- no monotonicity is assumed.
    """
    for candidate in sorted(candidates, reverse=True):
        if all(max_activations(candidate, r1) < nrh for r1 in DEFAULT_ROW_SET_SIZES):
            return candidate
    return None


def secure_prfm_threshold(nrh: int) -> int:
    """Largest ``RFMth`` that keeps the wave attack below ``N_RH``.

    Raises ``ValueError`` if no candidate threshold is secure.
    """
    threshold = _largest_secure(nrh, DEFAULT_RFM_THRESHOLDS, prfm_max_activations)
    if threshold is None:
        raise ValueError(f"PRFM cannot be configured securely for N_RH={nrh}")
    return threshold


def secure_prac_backoff_threshold(nrh: int, nref: int) -> int:
    """Largest ``NBO`` that keeps the wave attack below ``N_RH`` for PRAC-N.

    Raises ``ValueError`` if no candidate threshold is secure (e.g. PRAC-1 at
    very low ``N_RH`` values, as the paper reports).
    """
    nbo = _largest_secure(
        nrh, DEFAULT_BACKOFF_THRESHOLDS,
        lambda candidate, r1: prac_max_activations(candidate, nref, r1),
    )
    if nbo is None:
        raise ValueError(
            f"PRAC-{nref} cannot be configured securely for N_RH={nrh}"
        )
    return nbo


def minimum_secure_nrh_prac(nref: int) -> int:
    """Smallest ``N_RH`` at which PRAC-N can be configured securely.

    The paper reports this value to be 20 for PRAC-4 (a row can receive at
    most 19 activations when ``NBO = 1``).
    """
    worst = max(prac_max_activations(1, nref, r1) for r1 in DEFAULT_ROW_SET_SIZES)
    return worst + 1


def minimum_secure_nrh_prfm() -> int:
    """Smallest ``N_RH`` at which PRFM can be configured securely.

    PRFM's most aggressive candidate configuration is the smallest RFM
    threshold; the wave attack's worst case under that threshold plus one is
    the lowest ``N_RH`` for which :func:`secure_prfm_threshold` succeeds.
    """
    most_aggressive = min(DEFAULT_RFM_THRESHOLDS)
    worst = max(
        prfm_max_activations(most_aggressive, r1) for r1 in DEFAULT_ROW_SET_SIZES
    )
    return worst + 1


def minimum_secure_nrh_chronus() -> int:
    """Smallest ``N_RH`` at which Chronus can be configured securely.

    Chronus needs ``NBO >= 1`` with ``NBO < N_RH - Anormal`` (§8), so the
    smallest workable threshold is ``Anormal + 2``.
    """
    return ANORMAL_CHRONUS + 2
