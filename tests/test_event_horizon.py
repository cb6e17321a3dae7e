"""Event-horizon engine fidelity tests.

The system simulator is event-driven in time: ``run()`` skips to the exact
minimum of every component's next-event hint.  These tests pin the two
properties that make the skipping *safe*:

1. **Determinism harness** -- the event-driven path produces byte-identical
   :class:`~repro.system.metrics.SimulationResult` payloads to the
   cycle-stepped reference path (``strict_tick=True``) for every mechanism
   on one and two channels, and for every acting mechanism on an attack
   job where its back-offs, RFMs or victim refreshes fire.  A wake hint
   that fires late shows up here as a payload mismatch.

2. **Refresh fidelity** -- a time skip can never jump past a tREFI boundary:
   at every observed cycle the per-rank postponed-REF debt stays within the
   DDR5 postpone budget (+1 for the boundary that may land while an urgent
   REF drains its rank), even on skip-heavy idle workloads.
"""

import json

import pytest

from repro.core.factory import MECHANISM_NAMES
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.refresh import RefreshScheduler
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import attack_job, build_job_traces, mechanism_job
from repro.system.config import paper_system_config
from repro.system.simulator import SystemSimulator, simulate

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300
#: Attack-job size at which every acting mechanism below acts at N_RH=20.
ATTACK_BENIGN_ACCESSES = 50
ATTACK_ACCESSES = 600


def _payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


class TestStrictTickDeterminism:
    """Event-driven time skipping must not change any simulated number."""

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_event_path_matches_strict_tick(self, mechanism, channels):
        base = paper_system_config().with_overrides(channels=channels)
        job = mechanism_job(base, APPS, mechanism, 64, ACCESSES)
        event = simulate(
            job.config, build_job_traces(job), workload_name=job.workload_name
        )
        strict = simulate(
            job.config,
            build_job_traces(job),
            workload_name=job.workload_name,
            strict_tick=True,
        )
        assert _payload(event) == _payload(strict)

    @pytest.mark.parametrize(
        "mechanism, action",
        (
            ("PRAC-1", "backoffs_observed"),
            ("PRAC-4", "backoffs_observed"),
            ("Chronus", "backoffs_observed"),
            ("Chronus-PB", "backoffs_observed"),
            ("PRFM", "rfms"),
            ("Graphene", "preventive_refresh_rows"),
        ),
    )
    def test_acting_mechanism_matches_strict_tick(self, mechanism, action):
        """The back-off, RFM and victim-refresh paths skip time exactly too.

        The benign mixes above never trigger a mitigation at N_RH=64, so
        this attack job at N_RH=20 covers the code that only runs when the
        mechanism acts; the run must show the mechanism's action.
        """
        job = attack_job(
            paper_system_config(), ("429.mcf",), mechanism, 20,
            ATTACK_BENIGN_ACCESSES, ATTACK_ACCESSES,
        )
        event = simulate(
            job.config, build_job_traces(job), workload_name=job.workload_name
        )
        strict = simulate(
            job.config,
            build_job_traces(job),
            workload_name=job.workload_name,
            strict_tick=True,
        )
        assert event.controller_stats[action] > 0
        assert _payload(event) == _payload(strict)

    def test_event_path_actually_skips(self):
        """The equality above is meaningful: far fewer ticks than cycles."""
        base = paper_system_config()
        job = mechanism_job(base, APPS, "None", 64, ACCESSES)
        sim = SystemSimulator(job.config, build_job_traces(job))
        controller = sim.controllers[0]
        ticks = 0
        original = controller.tick

        def counting_tick(cycle):
            nonlocal ticks
            ticks += 1
            return original(cycle)

        controller.tick = counting_tick
        result = sim.run()
        assert ticks < result.cycles  # time was skipped ...
        assert result.cycles > 0      # ... in a non-trivial simulation


def _idle_trace(name: str, accesses: int, gap: int) -> Trace:
    """A trace whose accesses are separated by huge compute gaps."""
    entries = [
        TraceEntry(gap_instructions=gap, address=(7 * index + 3) * 4096)
        for index in range(accesses)
    ]
    return Trace(name, entries)


class TestRefreshSkipFidelity:
    """Time skips never postpone REFs beyond the DDR5 budget."""

    def test_pending_bounded_on_skip_heavy_idle_workload(self, monkeypatch):
        config = paper_system_config(mechanism="None", nrh=1024).with_overrides(
            num_cores=1
        )
        # ~200k instructions between accesses => tens of thousands of idle
        # DRAM cycles per access, many times tREFI, so the run is dominated
        # by long time skips.
        trace = _idle_trace("idler", accesses=24, gap=200_000)

        observed = []
        original_tick = RefreshScheduler.tick

        def spy(self, cycle):
            original_tick(self, cycle)
            observed.append(
                max(self.pending_refreshes(rank) for rank in range(self.num_ranks))
            )

        monkeypatch.setattr(RefreshScheduler, "tick", spy)
        result = simulate(config, [trace])

        assert result.cycles > 20 * 6240  # many tREFI boundaries were crossed
        assert observed, "refresh scheduler was never consulted"
        limit = RefreshScheduler.MAX_POSTPONED + 1
        assert max(observed) <= limit, (
            f"a time skip postponed REFs beyond the DDR5 budget: "
            f"max pending {max(observed)} > {limit}"
        )
        # And the debt is actually paid: REFs were issued throughout.
        assert result.controller_stats["refreshes"] > 0

    def test_idle_workload_matches_strict_tick(self):
        """The skip-heavy run is byte-identical to the cycle-stepped run."""
        config = paper_system_config(mechanism="None", nrh=1024).with_overrides(
            num_cores=1
        )
        event = simulate(config, [_idle_trace("idler", 12, 200_000)])
        strict = simulate(
            config, [_idle_trace("idler", 12, 200_000)], strict_tick=True
        )
        assert _payload(event) == _payload(strict)

    def test_controller_hint_includes_refresh_due_cycle(self):
        """An idle controller's wake hint never exceeds the next tREFI due."""
        from repro.controller.address_mapping import mop_mapping
        from repro.controller.controller import MemoryController
        from repro.dram.device import DramDevice
        from repro.dram.organization import DramOrganization
        from repro.dram.timing import ddr5_3200an

        org = DramOrganization(
            ranks=1, bankgroups=2, banks_per_group=2, rows=512, columns=32
        )
        device = DramDevice(org, ddr5_3200an())
        controller = MemoryController(device, mop_mapping(org))
        issued, hint = controller.tick(0)
        assert not issued
        assert hint <= controller.refresh.next_due_cycle()
        assert hint > 0
        # The public hint accessor agrees with what tick just returned (an
        # idle tick has no side effects besides refresh accrual, which
        # next_event_cycle performs too).
        assert controller.next_event_cycle(0) == hint
        # On a fully idle controller the only event is the tREFI boundary.
        assert hint == controller.refresh.next_due_cycle()
