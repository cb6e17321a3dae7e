"""Tests for the wave-attack security analysis (§5, §8)."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.security as security
from repro.analysis.security import (
    ANORMAL_CHRONUS,
    ANORMAL_PRAC,
    DEFAULT_BACKOFF_THRESHOLDS,
    DEFAULT_RFM_THRESHOLDS,
    DEFAULT_ROW_SET_SIZES,
    att_required_entries,
    chronus_max_activations,
    chronus_secure_backoff_threshold,
    minimum_secure_nrh_chronus,
    minimum_secure_nrh_prac,
    minimum_secure_nrh_prfm,
    prac_max_activations,
    prac_security_sweep,
    prfm_max_activations,
    prfm_security_sweep,
    secure_prac_backoff_threshold,
    secure_prfm_threshold,
)
from repro.dram.timing import BASE_NS, PRAC_NS


class TestParameters:
    def test_normal_traffic_activations(self):
        assert ANORMAL_PRAC == int(180 // 52)
        assert ANORMAL_CHRONUS == int(180 // 47)

    def test_anormal_reads_the_table1_timings(self):
        """Anormal is tABOACT // tRC of the ns tables the simulator uses."""
        assert ANORMAL_PRAC == int(BASE_NS["tABOACT"] // PRAC_NS["tRC"])
        assert ANORMAL_CHRONUS == int(BASE_NS["tABOACT"] // BASE_NS["tRC"])


class TestPrfmAnalysis:
    def test_larger_threshold_allows_more_activations(self):
        low = prfm_max_activations(4, 8192)
        high = prfm_max_activations(64, 8192)
        assert high > low

    def test_very_aggressive_threshold_bounds_attack_tightly(self):
        assert prfm_max_activations(2, 65536) < 32

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            prfm_max_activations(0, 100)
        with pytest.raises(ValueError):
            prfm_max_activations(4, 0)

    def test_sweep_shape(self):
        sweep = prfm_security_sweep([2, 8], [1024, 4096])
        assert set(sweep.keys()) == {2, 8}
        assert set(sweep[2].keys()) == {1024, 4096}

    def test_paper_claim_low_nrh_needs_threshold_below_four(self):
        """For N_RH = 32 only RFMth < 4 keeps the attack below threshold."""
        assert secure_prfm_threshold(32) < 4

    def test_secure_threshold_monotone_in_nrh(self):
        assert secure_prfm_threshold(1024) >= secure_prfm_threshold(128) >= secure_prfm_threshold(32)


class TestPracAnalysis:
    def test_more_rfms_per_backoff_is_more_secure(self):
        """Worst case over starting row-set sizes: PRAC-4 bounds the attack
        more tightly than PRAC-1."""
        row_sets = (2048, 8192, 65536)
        prac1 = max(prac_max_activations(1, 1, r1) for r1 in row_sets)
        prac4 = max(prac_max_activations(1, 4, r1) for r1 in row_sets)
        assert prac4 <= prac1

    def test_higher_backoff_threshold_allows_more_activations(self):
        low = prac_max_activations(1, 4, 8192)
        high = prac_max_activations(64, 4, 8192)
        assert high > low

    def test_minimum_secure_nrh_close_to_paper(self):
        """The paper reports PRAC-4 is secure down to N_RH = 20."""
        minimum = minimum_secure_nrh_prac(4)
        assert 16 <= minimum <= 24

    def test_prac1_needs_higher_nrh_than_prac4(self):
        assert minimum_secure_nrh_prac(1) > minimum_secure_nrh_prac(4)

    def test_sweep_worst_case_over_row_sets(self):
        sweep = prac_security_sweep([1, 8], [1, 4], [2048, 65536])
        assert sweep[8][4] >= sweep[1][4]

    def test_secure_nbo_monotone_in_nrh(self):
        assert (
            secure_prac_backoff_threshold(1024, 4)
            >= secure_prac_backoff_threshold(128, 4)
            >= secure_prac_backoff_threshold(20, 4)
        )

    def test_insecure_configuration_raises(self):
        with pytest.raises(ValueError):
            secure_prac_backoff_threshold(4, 1)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            prac_max_activations(0, 4, 100)
        with pytest.raises(ValueError):
            prac_max_activations(1, 0, 100)


class TestChronusAnalysis:
    def test_closed_form_bound(self):
        assert chronus_max_activations(16) == 16 + ANORMAL_CHRONUS

    def test_secure_threshold_at_nrh_20_matches_paper(self):
        """§11 configures Chronus with NBO = 16 at N_RH = 20."""
        assert chronus_secure_backoff_threshold(20) == 16

    def test_secure_threshold_capped_at_counter_range(self):
        assert chronus_secure_backoff_threshold(100_000) == 256

    def test_bound_below_nrh_for_secure_threshold(self):
        for nrh in (20, 32, 64, 128, 1024):
            nbo = chronus_secure_backoff_threshold(nrh)
            assert chronus_max_activations(nbo) < nrh

    def test_unconfigurable_threshold_raises(self):
        with pytest.raises(ValueError):
            chronus_secure_backoff_threshold(3)

    def test_att_sizing(self):
        assert att_required_entries() == ANORMAL_CHRONUS + 1
        assert att_required_entries(prac_timings=True) == ANORMAL_PRAC + 1


class TestCrossMechanismClaims:
    def test_chronus_tolerates_lower_nrh_than_prac(self):
        """Chronus stays secure at thresholds where PRAC-1 cannot."""
        nrh = 32
        chronus_secure_backoff_threshold(nrh)  # does not raise
        with pytest.raises(ValueError):
            secure_prac_backoff_threshold(nrh, 1)

    def test_chronus_threshold_far_larger_than_prac_at_low_nrh(self):
        nrh = 20
        chronus_nbo = chronus_secure_backoff_threshold(nrh)
        prac_nbo = secure_prac_backoff_threshold(nrh, 4)
        assert chronus_nbo > 2 * prac_nbo


SEARCH_NRH = (4, 8, 16, 20, 32, 64, 128, 256, 1024)


def max_of_secure(candidates, bound, nrh):
    """The largest secure candidate by evaluating all of them, and the
    number of bound evaluations that takes; the candidate is None if no
    candidate is secure."""
    secure, evaluations = [], 0
    for candidate in candidates:
        for r1 in DEFAULT_ROW_SET_SIZES:
            evaluations += 1
            if bound(candidate, r1) >= nrh:
                break
        else:
            secure.append(candidate)
    return (max(secure) if secure else None), evaluations


def searched(function, counted, monkeypatch, *args):
    """``function(*args)`` (None for a ValueError) and the number of calls
    it made to the bound named ``counted``."""
    calls = []
    bound = getattr(security, counted)

    def counting(*bound_args, **kwargs):
        calls.append(bound_args)
        return bound(*bound_args, **kwargs)

    monkeypatch.setattr(security, counted, counting)
    try:
        result = function(*args)
    except ValueError:
        result = None
    return result, len(calls)


class TestLargestFirstSearch:
    """Both secure-configuration searches scan from the largest candidate
    down; they must return what evaluating every candidate returns, and
    never evaluate more bounds to get there."""

    @pytest.mark.parametrize("nrh", SEARCH_NRH)
    def test_prfm_threshold_is_the_max_of_the_secure(self, nrh, monkeypatch):
        expected, full_scan = max_of_secure(
            DEFAULT_RFM_THRESHOLDS, prfm_max_activations, nrh
        )
        result, evaluations = searched(
            secure_prfm_threshold, "prfm_max_activations", monkeypatch, nrh
        )
        assert result == expected
        assert evaluations <= full_scan

    @pytest.mark.parametrize("nref", (1, 2, 4))
    @pytest.mark.parametrize("nrh", SEARCH_NRH)
    def test_prac_threshold_is_the_max_of_the_secure(self, nrh, nref, monkeypatch):
        expected, full_scan = max_of_secure(
            DEFAULT_BACKOFF_THRESHOLDS,
            lambda nbo, r1: prac_max_activations(nbo, nref, r1),
            nrh,
        )
        result, evaluations = searched(
            secure_prac_backoff_threshold, "prac_max_activations", monkeypatch,
            nrh, nref,
        )
        assert result == expected
        assert evaluations <= full_scan

    def test_the_search_stops_at_the_largest_secure_candidate(self, monkeypatch):
        # At N_RH=1024 the largest PRAC-4 candidate is secure: one
        # candidate, all six row-set sizes.
        assert searched(
            secure_prac_backoff_threshold, "prac_max_activations", monkeypatch,
            1024, 4,
        ) == (256, len(DEFAULT_ROW_SET_SIZES))


class TestBoundaryBehaviour:
    """Edge / boundary behaviour of the secure-configuration search
    (consumed by the red-team engine's analytical comparison)."""

    def test_minimum_secure_nrh_prac_monotone_in_nref(self):
        """More RFMs per back-off never raise the security floor."""
        assert (
            minimum_secure_nrh_prac(1)
            >= minimum_secure_nrh_prac(2)
            >= minimum_secure_nrh_prac(4)
        )

    def test_minimum_secure_nrh_prac_is_tight(self):
        """At the minimum a secure NBO exists; one below it none does."""
        for nref in (1, 2, 4):
            minimum = minimum_secure_nrh_prac(nref)
            assert secure_prac_backoff_threshold(minimum, nref) >= 1
            with pytest.raises(ValueError):
                secure_prac_backoff_threshold(minimum - 1, nref)

    def test_minimum_secure_nrh_prfm_is_tight(self):
        minimum = minimum_secure_nrh_prfm()
        assert secure_prfm_threshold(minimum) >= 2
        with pytest.raises(ValueError):
            secure_prfm_threshold(minimum - 1)

    def test_minimum_secure_nrh_chronus_is_tight(self):
        minimum = minimum_secure_nrh_chronus()
        assert minimum == ANORMAL_CHRONUS + 2
        # The smallest workable configuration is NBO = 1...
        assert chronus_secure_backoff_threshold(minimum) == 1
        # ...and one threshold below it no configuration exists.
        with pytest.raises(ValueError):
            chronus_secure_backoff_threshold(minimum - 1)

    @settings(max_examples=40, deadline=None)
    @given(nrh=st.integers(min_value=5, max_value=2048))
    def test_chronus_secure_backoff_threshold_monotone(self, nrh):
        """NBO(N_RH) never decreases when the threshold relaxes by one."""
        assert chronus_secure_backoff_threshold(nrh + 1) >= (
            chronus_secure_backoff_threshold(nrh)
        )

    def test_chronus_counter_width_cap_boundary(self):
        """The 8-bit counter cap engages exactly at Anormal + 257."""
        cap_boundary = 256 + ANORMAL_CHRONUS + 1
        assert chronus_secure_backoff_threshold(cap_boundary) == 256
        assert chronus_secure_backoff_threshold(cap_boundary - 1) == 255
        assert chronus_secure_backoff_threshold(cap_boundary + 100) == 256

    def test_prfm_max_activations_single_row_set(self):
        """|R1| = 1 with RFMth = 1: the first round already mitigates."""
        assert prfm_max_activations(1, 1) == 1

    def test_prfm_max_activations_threshold_of_one_bounds_tightest(self):
        """RFMth = 1 is the most aggressive configuration of all."""
        for rows in (2048, 65536):
            assert prfm_max_activations(1, rows) <= prfm_max_activations(2, rows)

    def test_prfm_max_activations_huge_threshold_window_bound(self):
        """A threshold larger than the window's activation budget never
        triggers an RFM: the refresh window is the only limit."""
        window_rounds = prfm_max_activations(1 << 30, 2048)
        budget = BASE_NS["tREFW"] / (2048 * BASE_NS["tRC"])
        assert window_rounds == int(budget)

    @settings(max_examples=40, deadline=None)
    @given(
        threshold=st.integers(min_value=1, max_value=64),
        rows=st.sampled_from([512, 2048, 8192]),
    )
    def test_prfm_survivor_outlasts_threshold_rounds(self, threshold, rows):
        """Mitigation removes at most one row per ``RFMth`` activations, so
        (while the refresh window is not binding -- guaranteed by the bounded
        parameter ranges) the last survivor sees at least ``RFMth`` rounds.

        Note that ``prfm_max_activations`` is *not* pointwise monotone in the
        threshold for a fixed ``|R1|``: a larger threshold keeps rounds large,
        so fewer rounds fit into the refresh window (Eq. 1's two competing
        terms); only this lower bound holds unconditionally.
        """
        assert prfm_max_activations(threshold, rows) >= threshold


@settings(max_examples=30, deadline=None)
@given(
    nbo=st.integers(min_value=1, max_value=64),
    nref=st.sampled_from([1, 2, 4]),
    rows=st.sampled_from([2048, 8192, 65536]),
)
def test_prac_attack_count_at_least_initialisation(nbo, nref, rows):
    result = prac_max_activations(nbo, nref, rows)
    assert result >= nbo - 1


@settings(max_examples=30, deadline=None)
@given(
    threshold=st.integers(min_value=2, max_value=256),
    rows=st.sampled_from([2048, 8192, 65536]),
)
def test_prfm_attack_count_positive_and_bounded_by_window(threshold, rows):
    result = prfm_max_activations(threshold, rows)
    assert 1 <= result <= BASE_NS["tREFW"] / BASE_NS["tRC"]
