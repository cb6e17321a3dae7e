"""Event-horizon engine fidelity tests.

The system simulator is event-driven in time: ``run()`` skips to the exact
minimum of every component's next-event hint.  These tests pin the two
properties that make the skipping *safe*:

1. **Determinism harness** -- the event-driven path produces byte-identical
   :class:`~repro.system.metrics.SimulationResult` payloads to the
   cycle-stepped reference path (``strict_tick=True``) for every mechanism
   on one and two channels, for every acting mechanism on an attack job
   where its back-offs, RFMs or victim refreshes fire, and on the wave
   attack, where one LLC-bypassing core hammers one bank.  A wake hint
   that fires late shows up here as a payload mismatch.

   Each of these runs parks a finished core (it leaves the main loop and
   replays its LLC hits when the loop exits), so the harness also compares
   what parking defers beyond the payload: LLC statistics and contents, and
   every core's progress.  In the acting-mechanism cases each parked core
   replays more hits than it probes the LLC for, so the comparison covers
   the replay's jump over whole trace periods.

2. **Refresh fidelity** -- a time skip can never jump past a tREFI boundary:
   at every observed cycle the per-rank postponed-REF debt stays within the
   DDR5 postpone budget (+1 for the boundary that may land while an urgent
   REF drains its rank), even on skip-heavy idle workloads.
"""

import json
from dataclasses import dataclass
from typing import Dict

import pytest

from repro.attacks.oracle import DisturbanceOracle
from repro.attacks.patterns import AttackSpec
from repro.core.factory import MECHANISM_NAMES
from repro.cpu.trace import Trace, TraceEntry
from repro.dram.refresh import RefreshScheduler
from repro.experiments.cache import result_to_dict
from repro.experiments.sweep import (
    attack_job,
    attack_search_job,
    build_job_traces,
    mechanism_job,
)
from repro.system.config import paper_system_config
from repro.system.simulator import FAR_FUTURE, SystemSimulator, simulate

APPS = ("429.mcf", "401.bzip2")
ACCESSES = 300
#: Attack-job size at which every acting mechanism below acts at N_RH=20.
ATTACK_BENIGN_ACCESSES = 50
ATTACK_ACCESSES = 600
#: A shrunken wave attack: one core hammering 16 rows of one bank.
WAVE = AttackSpec.create("wave", {"num_rows": 16, "rounds": 20, "row_stride": 4})


def _payload(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True)


@dataclass
class _Replay:
    """A parked core, its LLC hits when it parked and its LLC probes since."""

    core: object
    hits_at_park: int
    probes: int = 0

    @property
    def hits(self) -> int:
        """The hits the core made after it parked."""
        return self.core.llc_hits - self.hits_at_park

    def count_probes(self) -> None:
        """Wrap the core's LLC probe so that each call counts."""
        probe = self.core._probe_hit

        def counting(address, is_write):
            self.probes += 1
            return probe(address, is_write)

        self.core._probe_hit = counting


def _spy_parking(sim) -> Dict[int, _Replay]:
    """Record every core of ``sim`` that parks, by id in parking order."""
    replays: Dict[int, _Replay] = {}
    park = sim._park_cores

    def spy(live, parked):
        before = len(parked)
        parking = park(live, parked)
        for core in parked[before:]:
            replay = replays[core.core_id] = _Replay(core, core.llc_hits)
            replay.count_probes()
        return parking

    sim._park_cores = spy
    return replays


def _deferred_state(sim) -> dict:
    """What a parked core's deferred hits touch, beyond the payload."""
    llc = sim.llc
    return {
        "llc_stats": llc.stats,
        # Compared as dicts, without LRU order: a deferred hit may leave
        # another order, which nothing reads in a run that never evicts.
        "llc_sets": [dict(cache_set or {}) for cache_set in llc._sets],
        "cores": [
            (core.llc_hits, core.mem_writes, core._position, core._index)
            for core in sim.cores
        ],
    }


def _job_oracle(job) -> DisturbanceOracle:
    """A fresh disturbance oracle for ``job``, built as ``execute_job`` does."""
    return DisturbanceOracle(
        nrh=job.config.nrh,
        num_channels=job.config.organization.channels,
    )


def _event_matches_strict(config, traces, oracle=None):
    """Run ``traces`` event-driven and cycle-stepped and assert they agree.

    ``oracle``, when given, builds a fresh disturbance oracle for each run,
    so the ``oracle_*`` statistics are compared too.  Returns the
    event-driven simulator, its result and its parked cores' replays by id.
    """
    runs = []
    for strict in (False, True):
        sim = SystemSimulator(
            config, traces, strict_tick=strict,
            oracle=None if oracle is None else oracle(),
        )
        parked = _spy_parking(sim)
        runs.append((sim, sim.run(), parked))
    (event_sim, event, parked), (strict_sim, strict, strict_parked) = runs
    assert not strict_parked  # the oracle never parks
    assert _payload(event) == _payload(strict)
    assert _deferred_state(event_sim) == _deferred_state(strict_sim)
    return event_sim, event, parked


class TestStrictTickDeterminism:
    """Event-driven time skipping must not change any simulated number."""

    @pytest.mark.parametrize("channels", (1, 2))
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_event_path_matches_strict_tick(self, mechanism, channels):
        base = paper_system_config().with_overrides(channels=channels)
        job = mechanism_job(base, APPS, mechanism, 64, ACCESSES)
        _, _, parked = _event_matches_strict(job.config, build_job_traces(job))
        assert parked, "no core parked, so the replay path went unchecked"

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
        _, event, parked = _event_matches_strict(job.config, build_job_traces(job))
        assert event.controller_stats[action] > 0
        assert parked, "no core parked, so the replay path went unchecked"
        for replay in parked.values():
            assert replay.probes < replay.hits, "a parked core's replay did not jump"

    @pytest.mark.parametrize(
        "mechanism, action",
        (
            ("PRAC-1", "backoffs_observed"),
            ("Chronus", "backoffs_observed"),
            ("Graphene", "preventive_refresh_rows"),
        ),
    )
    def test_wave_attack_matches_strict_tick(self, mechanism, action):
        """A lone LLC-bypassing core against one bank skips time exactly.

        Here the controller's hint after an issued command skips most
        often: between the attacker's requests only one bank has work.
        """
        job = attack_search_job(paper_system_config(), mechanism, 20, WAVE)
        _, event, parked = _event_matches_strict(
            job.config, build_job_traces(job), oracle=lambda: _job_oracle(job)
        )
        assert event.controller_stats[action] > 0
        assert any(key.startswith("oracle_") for key in event.mitigation_stats)
        assert not parked  # the attacker bypasses the LLC

    @pytest.mark.parametrize(
        "mechanism, channels",
        (("None", 1), ("PRAC-4", 1), ("PRFM", 1), ("PRAC-4", 2)),
    )
    def test_event_path_actually_skips(self, mechanism, channels):
        """The equality above is meaningful: far fewer ticks than cycles.

        Strict tick runs every controller on every cycle, one cycle per
        tick on one channel and half a cycle on two.  The event path runs
        4.5 to 6.3 cycles per tick on these jobs, so the floor of 3 fails
        once most of the time skipping is lost, on any host.
        """
        base = paper_system_config().with_overrides(channels=channels)
        job = mechanism_job(base, APPS, mechanism, 64, ACCESSES)
        sim = SystemSimulator(job.config, build_job_traces(job))
        ticks = 0
        for controller in sim.controllers:

            def counting_tick(cycle, tick=controller.tick):
                nonlocal ticks
                ticks += 1
                return tick(cycle)

            controller.tick = counting_tick
        result = sim.run()
        assert ticks > 0
        assert 3 * ticks <= result.cycles


class TestParkedCores:
    """When a finished core may leave the main loop, and what it changes."""

    def test_evicting_llc_parks_no_core(self):
        """A 4 KiB LLC overflows its sets, so no hit is provably safe to defer."""
        job = attack_job(
            paper_system_config(llc_size_bytes=4096), ("429.mcf",), "Chronus", 20,
            ATTACK_BENIGN_ACCESSES, ATTACK_ACCESSES,
        )
        event_sim, _, parked = _event_matches_strict(job.config, build_job_traces(job))
        assert event_sim.llc.stats.writebacks > 0
        assert not parked

    def test_resident_core_does_not_park_when_llc_can_evict(self):
        """Lines resident when a core finishes can still be evicted later.

        Core 0 finishes over four lines while core 1 streams through more
        lines than a 4 KiB LLC holds, so hits that parking core 0 would
        defer are misses by the end of the run.
        """
        config = paper_system_config(num_cores=2, llc_size_bytes=4096)
        small = Trace("small", [TraceEntry(20, 64 * line) for line in range(4)])
        stream = Trace("stream", [TraceEntry(20, 64 * line) for line in range(8, 400)])
        event_sim, _, parked = _event_matches_strict(config, [small, stream])
        assert event_sim.cores[0].finish_cycle < event_sim.cores[1].finish_cycle
        assert event_sim.llc.stats.misses > 4 + 392  # core 0's lines were evicted
        assert not parked

    def test_core_owing_posted_writes_stays_live(self):
        """A finished core whose write-allocate fills bounced off a full
        write queue still owes DRAM those writes; it parks once they drain."""
        config = paper_system_config(num_cores=2, write_queue_size=4)
        writer = Trace("writer", [TraceEntry(20, 64 * line, True) for line in range(8)])
        reader = Trace("reader", [TraceEntry(20, 64 * line) for line in range(1000, 1300)])
        sim = SystemSimulator(config, [writer, reader])
        owed, park = [], sim._park_cores

        def spy(live, parked):
            owed.append(len(sim.cores[0]._pending_posted_writes))
            return park(live, parked)

        sim._park_cores = spy
        sim.run()
        assert owed[0] > 0  # finished while still owing writes
        _, _, parked = _event_matches_strict(config, [writer, reader])
        assert 0 in parked

    def test_finished_attacker_never_parks(self):
        """An LLC-bypassing core reaches DRAM on every access, so it stays
        live even when it has finished and has no read in flight."""
        config = paper_system_config(num_cores=2, attacker_cores=(0,))
        attacker = Trace("attacker", [TraceEntry(2000, 64 * line) for line in range(3)])
        benign = Trace("benign", [TraceEntry(20, 64 * line) for line in range(1000, 1400)])
        event_sim, _, parked = _event_matches_strict(config, [attacker, benign])
        assert event_sim.cores[0].finish_cycle < event_sim.cores[1].finish_cycle
        assert 0 not in parked

    def test_parked_core_that_misses_is_loud(self, monkeypatch):
        """Were the never-evicts proof wrong, the replay would raise rather
        than drop the misses of a parked core."""
        job = attack_job(
            paper_system_config(llc_size_bytes=4096), ("429.mcf",), "Chronus", 20,
            ATTACK_BENIGN_ACCESSES, ATTACK_ACCESSES,
        )
        sim = SystemSimulator(job.config, build_job_traces(job))
        monkeypatch.setattr(sim.llc, "never_evicts", lambda addresses: True)
        parked = _spy_parking(sim)
        with pytest.raises(RuntimeError, match="parked core 1 missed the LLC"):
            sim.run()
        assert list(parked) == [1]  # the benign core; core 0 is the attacker

    def test_stall_after_parking_is_a_deadlock(self):
        """A parked core does not keep a stalled run alive until max_cycles.

        The controller stops making progress 200 cycles after the first
        core finishes, by when that core has parked, so the live core
        stalls alone: the run raises the deadlock error instead of stepping
        the parked core's replay silently to ``max_cycles``.
        """
        base = paper_system_config(max_cycles=60_000)
        job = mechanism_job(base, APPS, "None", 64, ACCESSES)
        sim = SystemSimulator(job.config, build_job_traces(job))
        controller = sim.controllers[0]
        original = controller.tick
        quiet_at_stall = []

        def stalling_tick(cycle):
            finished = [c.finish_cycle for c in sim.cores if c.finish_cycle is not None]
            if not finished or cycle < min(finished) + 200:
                return original(cycle)
            if not quiet_at_stall:
                quiet_at_stall.extend(c.core_id for c in sim.cores if c.quiet)
            return False, FAR_FUTURE

        controller.tick = stalling_tick
        with pytest.raises(RuntimeError, match="simulation deadlock"):
            sim.run()
        assert quiet_at_stall, "the stall began before a finished core was quiet"


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
        # An idle tick has no side effects besides refresh accrual, so a
        # second one returns the same hint.
        assert controller.tick(0) == (False, hint)
        # On a fully idle controller the only event is the tREFI boundary.
        assert hint == controller.refresh.next_due_cycle()
