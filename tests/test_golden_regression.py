"""Golden regression tests: pinned values for metrics and security analysis.

The sweep-engine refactor (and any future one) must be behaviour-preserving:
these tests pin the exact outputs of `repro.system.metrics` and
`repro.analysis.security` -- both on hand-checkable inputs and on tiny fixed
simulated traces -- so a change that silently shifts any evaluated number
fails loudly here.

The simulation goldens were recorded from the seed implementation (serial,
in-process).  If a deliberate simulator change invalidates them, re-record
the constants and bump `repro.experiments.cache.CACHE_SCHEMA_VERSION` so
stale on-disk cache entries are invalidated too.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.security import (
    ANORMAL_CHRONUS,
    ANORMAL_PRAC,
    att_required_entries,
    chronus_max_activations,
    chronus_secure_backoff_threshold,
    minimum_secure_nrh_prac,
    prac_max_activations,
    prac_security_sweep,
    prfm_max_activations,
    prfm_security_sweep,
    secure_prac_backoff_threshold,
    secure_prfm_threshold,
)
from repro.core.factory import MECHANISM_NAMES
from repro.experiments.sweep import (
    alone_job,
    baseline_job,
    execute_job,
    mechanism_job,
)
from repro.system.config import paper_system_config
from repro.system.metrics import (
    geometric_mean,
    harmonic_speedup,
    max_slowdown,
    normalized_weighted_speedup,
    standard_error,
    weighted_speedup,
)

#: Fingerprints of the reference set (see TestReferenceSetGoldens).
REFERENCE_SET = json.loads(
    (Path(__file__).parent / "golden_reference_set.json").read_text(encoding="utf-8")
)


class TestMetricGoldens:
    """Hand-checkable inputs with exact expected values."""

    def test_weighted_speedup(self):
        # 2/4 + 3/6 = 1.0 exactly.
        assert weighted_speedup([2.0, 3.0], [4.0, 6.0]) == pytest.approx(1.0)
        # 1/2 + 3/4 = 1.25 exactly.
        assert weighted_speedup([1.0, 3.0], [2.0, 4.0]) == pytest.approx(1.25)

    def test_normalized_weighted_speedup(self):
        # mechanism WS = 1/2 + 1/2 = 1.0; baseline WS = 1 + 1 = 2.0.
        value = normalized_weighted_speedup([1.0, 2.0], [2.0, 4.0], [2.0, 4.0])
        assert value == pytest.approx(0.5)

    def test_max_slowdown(self):
        # Worst core: 1 - 1/4 = 0.75.
        assert max_slowdown([3.0, 1.0], [4.0, 4.0]) == pytest.approx(0.75)
        assert max_slowdown([4.0, 4.0], [4.0, 4.0]) == pytest.approx(0.0)

    def test_harmonic_speedup(self):
        # Per-core speedups 1/2 and 1/2 -> harmonic mean 0.5.
        assert harmonic_speedup([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.5)

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_standard_error(self):
        # Values 1, 2, 3: sample stddev = 1, SE = 1/sqrt(3).
        assert standard_error([1.0, 2.0, 3.0]) == pytest.approx(0.5773502691896258)
        assert standard_error([5.0]) == 0.0


class TestSecurityGoldens:
    """Pinned outputs of the §5 / §8 closed-form analysis."""

    def test_normal_traffic_activations(self):
        assert ANORMAL_PRAC == 3
        assert ANORMAL_CHRONUS == 3

    def test_prfm_max_activations(self):
        assert prfm_max_activations(32, 2048) == 259
        assert prfm_max_activations(2, 65536) == 18

    def test_prac_max_activations(self):
        assert prac_max_activations(128, 4, 2048) == 140
        assert prac_max_activations(1, 4, 2048) == 13
        assert prac_max_activations(1, 1, 65536) == 10

    def test_chronus_max_activations(self):
        assert chronus_max_activations(60) == 63

    def test_secure_thresholds(self):
        assert chronus_secure_backoff_threshold(1024) == 256
        assert chronus_secure_backoff_threshold(64) == 60
        assert chronus_secure_backoff_threshold(20) == 16
        assert secure_prfm_threshold(1024) == 80
        assert secure_prfm_threshold(64) == 4
        assert secure_prac_backoff_threshold(1024, 4) == 256
        assert secure_prac_backoff_threshold(128, 4) == 64
        # Moves to 7 if tRC is read from the cycle presets (52.5 ns).
        assert secure_prac_backoff_threshold(32, 2) == 6

    def test_att_sizing_and_minimum_secure_nrh(self):
        assert att_required_entries(prac_timings=True) == 4
        assert att_required_entries(prac_timings=False) == 4
        assert minimum_secure_nrh_prac(4) == 18
        assert minimum_secure_nrh_prac(1) == 47
        # Moves to 26 if tRC is read from the cycle presets (52.5 ns).
        assert minimum_secure_nrh_prac(2) == 27

    def test_security_sweeps(self):
        assert prfm_security_sweep((2, 32), (2048,)) == {2: {2048: 13}, 32: {2048: 259}}
        assert prac_security_sweep((1, 8), (4,), (2048,)) == {1: {4: 13}, 8: {4: 20}}


class TestSimulationGoldens:
    """Pinned end-to-end numbers for a tiny fixed two-core trace.

    429.mcf + 401.bzip2, 400 accesses per core, seed 0, paper config;
    mechanism run: PRAC-4 at N_RH = 64.

    Re-recorded for the event-horizon engine (PR 4): the hot-path rebuild
    deliberately fixed fidelity bugs -- time skips no longer jump past tREFI
    boundaries or tRRD/tFAW releases, the FR-FCFS reordering cap resets when
    a row closes, failed dispatches no longer mutate the LLC, and finished
    cores replay deterministically -- so the pinned numbers shifted once.
    The values are identical between the event-driven and strict-tick paths
    (tests/test_event_horizon.py proves byte-equality).
    """

    APPS = ("429.mcf", "401.bzip2")
    ACCESSES = 400
    REL = 1e-9

    @pytest.fixture(scope="class")
    def results(self):
        base = paper_system_config()
        return {
            "baseline": execute_job(baseline_job(base, self.APPS, self.ACCESSES)),
            "mech": execute_job(
                mechanism_job(base, self.APPS, "PRAC-4", 64, self.ACCESSES)
            ),
            "alone": [
                execute_job(alone_job(base, app, self.ACCESSES)).core_ipcs[0]
                for app in self.APPS
            ],
        }

    def test_baseline_run(self, results):
        baseline = results["baseline"]
        assert baseline.cycles == 13530
        assert baseline.core_ipcs == pytest.approx(
            [0.4906093977202241, 1.3256185548868475], rel=self.REL
        )
        assert baseline.energy_nj == pytest.approx(22479.6, rel=self.REL)

    def test_mechanism_run(self, results):
        mech = results["mech"]
        assert mech.cycles == 18063
        assert mech.core_ipcs == pytest.approx(
            [0.37912934150557914, 0.9929479625543403], rel=self.REL
        )
        assert mech.energy_nj == pytest.approx(25064.8504, rel=self.REL)

    def test_alone_ipcs(self, results):
        assert results["alone"] == pytest.approx(
            [0.5310965810272329, 1.5716394479720706], rel=self.REL
        )

    def test_derived_metrics(self, results):
        mech, baseline = results["mech"], results["baseline"]
        alone = results["alone"]
        assert weighted_speedup(mech.core_ipcs, alone) == pytest.approx(
            1.345652579618498, rel=self.REL
        )
        assert normalized_weighted_speedup(
            mech.core_ipcs, alone, baseline.core_ipcs
        ) == pytest.approx(0.7614477379284745, rel=self.REL)
        assert max_slowdown(mech.core_ipcs, baseline.core_ipcs) == pytest.approx(
            0.2509549908653047, rel=self.REL
        )
        assert harmonic_speedup(mech.core_ipcs, alone) == pytest.approx(
            0.6703235946020838, rel=self.REL
        )


class TestReferenceSetGoldens:
    """Pinned fingerprints of the reference set, compared exactly.

    A fixed two-core mix under every mechanism on one and two channels
    (``tests/golden_reference_set.json``).  Besides cycles, IPCs and energy,
    each row pins the reads served, REFs, RFMs and preventively refreshed
    rows, so a change to what PRFM, PARA or Hydra do fails here.  At this
    size no mechanism backs off; the acting paths are pinned on attack jobs
    by tests/test_event_horizon.py and benchmarks/e2e/fingerprints.json.
    """

    def test_covers_every_mechanism_on_one_and_two_channels(self):
        assert set(REFERENCE_SET["fingerprints"]) == {
            f"{mechanism}/ch{channels}"
            for channels in (1, 2)
            for mechanism in MECHANISM_NAMES
        }

    @pytest.mark.parametrize("workload", sorted(REFERENCE_SET["fingerprints"]))
    def test_fingerprint(self, workload):
        mechanism, channels = workload.split("/ch")
        base = paper_system_config().with_overrides(channels=int(channels))
        result = execute_job(
            mechanism_job(
                base,
                tuple(REFERENCE_SET["applications"]),
                mechanism,
                REFERENCE_SET["nrh"],
                REFERENCE_SET["accesses_per_core"],
            )
        )
        stats = result.controller_stats
        assert {
            "cycles": result.cycles,
            "core_ipcs": result.core_ipcs,
            "energy_nj": result.energy_nj,
            "reads_served": stats["reads_served"],
            "refreshes": stats["refreshes"],
            "rfms": stats["rfms"],
            "preventive_refresh_rows": stats["preventive_refresh_rows"],
        } == REFERENCE_SET["fingerprints"][workload]
