"""The full-system simulator.

:class:`SystemSimulator` wires the trace-driven cores, the shared LLC, the
per-channel memory controllers, the DRAM devices and the selected
read-disturbance mitigation mechanism together, and runs them to completion.
The simulator is cycle-accurate at DRAM-command granularity but event-driven
in time: it skips cycles in which no component can make progress, which keeps
pure-Python simulations tractable while preserving command-level timing
fidelity.

The memory system scales out horizontally: ``config.organization.channels``
independent channels are built, each with its own
:class:`~repro.controller.controller.MemoryController`,
:class:`~repro.dram.device.DramDevice` and mitigation-mechanism instance
(mitigation state is per-channel hardware, so each channel tracks only its
own activations).  The LLC miss path routes each request to its channel
through a :class:`~repro.controller.router.ChannelRouter`; every channel owns
an independent command bus, which is what makes aggregate bandwidth scale
with the channel count.  A single-channel system behaves bit-identically to
the original hardwired design (pinned by the golden regression tests).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.controller.address_mapping import mapping_by_name
from repro.controller.controller import MemoryController
from repro.controller.request import RequestPool, RequestType

#: Hoisted enum member for the completion-drain loop (attribute lookups on
#: the enum class are surprisingly costly on this path).
_READ = RequestType.READ
from repro.controller.router import ChannelRouter
from repro.core.factory import MechanismSetup, build_mechanism
from repro.cpu.cache import Cache
from repro.cpu.core import Core
from repro.cpu.trace import Trace
from repro.dram.device import DramDevice
from repro.dram.timing import FAR_FUTURE, ddr5_3200an
from repro.energy.drampower import DEFAULT_ENERGY_MODEL, EnergyModel
from repro.system.config import SystemConfig
from repro.system.metrics import (
    CHANNEL_COUNTER_KEYS,
    SimulationResult,
    aggregate_channel_stats,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (attacks -> sweep)
    from repro.attacks.oracle import DisturbanceOracle


class SimulationTruncated(RuntimeError):
    """A run reached ``config.max_cycles`` before every core finished.

    Raised rather than returned: an unfinished core reports an IPC of 0, so
    a truncated result would read as a 100% slowdown and must never be
    cached as a finished one.
    """


class SystemSimulator:
    """One simulated multi-core system running one workload."""

    def __init__(
        self,
        config: SystemConfig,
        traces: Sequence[Trace],
        workload_name: Optional[str] = None,
        energy_model: Optional[EnergyModel] = None,
        oracle: Optional["DisturbanceOracle"] = None,
        strict_tick: bool = False,
        seed: int = 0,
    ) -> None:
        if len(traces) != config.num_cores:
            raise ValueError(
                f"expected {config.num_cores} traces, got {len(traces)}"
            )
        self.config = config
        self.traces = list(traces)
        self.workload_name = workload_name or "+".join(trace.name for trace in traces)
        self.energy_model = energy_model or DEFAULT_ENERGY_MODEL
        self.oracle = oracle
        #: Debug flag: when True, time advances one cycle at a time (the
        #: cycle-stepped reference path) instead of skipping to the next
        #: event horizon.  Slow but trivially correct; the determinism
        #: harness asserts the event-driven path is byte-identical to it.
        self.strict_tick = strict_tick
        organization = config.organization
        self.num_channels = organization.channels
        # One mechanism instance per channel: counter tables, back-off state
        # and (for PARA) the RNG are per-channel hardware.  Channel seeds are
        # decorrelated; channel 0 keeps ``seed``, so single-channel systems
        # are unchanged.
        self.setups: List[MechanismSetup] = [
            build_mechanism(
                config.mechanism,
                nrh=config.nrh,
                num_banks=organization.total_banks,
                seed=seed + channel,
            )
            for channel in range(self.num_channels)
        ]
        self.setup: MechanismSetup = self.setups[0]
        timing = ddr5_3200an(
            prac=self.setup.use_prac_timings,
            legacy_prac_timings=(
                config.legacy_prac_timings and self.setup.use_prac_timings
            ),
        )
        self.devices: List[DramDevice] = [
            DramDevice(organization, timing, mitigation=setup.on_die)
            for setup in self.setups
        ]
        mapping = mapping_by_name(config.address_mapping, organization)
        self.controllers: List[MemoryController] = [
            MemoryController(
                device=device,
                mapping=mapping,
                mechanism=setup.controller,
                read_queue_size=config.read_queue_size,
                write_queue_size=config.write_queue_size,
                scheduler_cap=config.scheduler_cap,
            )
            for device, setup in zip(self.devices, self.setups)
        ]
        self.router = ChannelRouter(mapping, self.controllers)
        self.llc = Cache(
            size_bytes=config.llc_size_bytes,
            associativity=config.llc_associativity,
            line_size=config.llc_line_size,
        )
        # One request pool for the whole system: requests are recycled as
        # soon as their completion is drained, so the steady-state request
        # path allocates nothing.
        self._request_pool = RequestPool()
        self.cores = [
            Core(
                core_id=index,
                trace=trace,
                llc=self.llc,
                clock_ratio=config.clock_ratio,
                issue_width=config.issue_width,
                window_size=config.window_size,
                max_outstanding=config.max_outstanding,
                llc_hit_latency=config.llc_hit_latency,
                bypass_llc=index in config.attacker_cores,
                request_pool=self._request_pool,
            )
            for index, trace in enumerate(self.traces)
        ]
        self.cycle = 0
        # Whether no LLC set can ever overflow in this run; run() decides it
        # when the first core that reads through the LLC finishes (see
        # _park_cores).
        self._llc_never_evicts: Optional[bool] = None

        if self.oracle is not None:
            if self.oracle.num_channels != self.num_channels:
                raise ValueError(
                    f"oracle tracks {self.oracle.num_channels} channel(s) but "
                    f"the system has {self.num_channels}; construct it with "
                    f"num_channels=config.organization.channels"
                )
            # Ground-truth observation: every ACT, plus every victim refresh
            # any installed mechanism performs or requests -- tagged with the
            # originating channel so cross-channel isolation is provable.
            for channel, device in enumerate(self.devices):
                device.add_activation_listener(self._oracle_act_sink(channel))
            for channel, setup in enumerate(self.setups):
                for mechanism in setup.mechanisms():
                    mechanism.add_mitigation_listener(
                        self._oracle_refresh_sink(channel)
                    )

    def _oracle_act_sink(self, channel: int) -> Callable[[int, int, int], None]:
        oracle = self.oracle
        if channel == 0:
            # Pre-bound method: ``on_activate`` defaults to channel 0, so the
            # per-ACT closure frame is dropped from the single-channel (and
            # channel-0) fan-out path.
            return oracle.on_activate

        def sink(bank_id: int, row: int, cycle: int) -> None:
            oracle.on_activate(bank_id, row, cycle, channel=channel)

        return sink

    def _oracle_refresh_sink(self, channel: int) -> Callable[..., None]:
        oracle = self.oracle

        def sink(bank_id: int, aggressor_row, num_rows: int, cycle: int) -> None:
            oracle.on_victims_refreshed(
                bank_id, aggressor_row, num_rows, cycle, channel=channel
            )

        return sink

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run the simulation until every core retires its target.

        Raises :class:`SimulationTruncated` if ``config.max_cycles`` comes
        first.

        Time is event-driven: after every iteration, the loop advances to
        the exact minimum of every component's next-event hint (controller
        command readiness, refresh due cycles, back-off deadlines, core
        retire/issue events); a core waiting for queue space after an
        issue, or woken by a completion, makes it the next cycle.  A
        finished core whose replay can only hit the LLC is parked (see
        :meth:`_park_cores`) and replays its hits in one go when the loop
        exits.  With ``strict_tick=True`` time instead advances one cycle
        at a time and no core parks -- the reference path the determinism
        tests compare against.
        """
        cycle = self.cycle
        cores = self.cores
        router = self.router
        router_tick = router.tick
        router_drain = router.drain_completed
        pool = self._request_pool
        release = pool.release
        max_cycles = self.config.max_cycles
        strict = self.strict_tick
        # Whether the previous loop iteration issued a DRAM command: queue
        # space only frees on issue events, so queue-blocked cores retry
        # exactly then (matching the ungated schedule cycle for cycle).
        prev_issued = True
        # The cores in the issue pass and the wake minimum, and the parked
        # ones; ``parking`` turns False once no core can park in this run.
        live = list(cores)
        parked: List[Core] = []
        parking = not strict

        while True:
            finished_all = True
            park_due = False
            for core in live:
                # Issue gating: a call is skipped only when the core's own
                # wake bookkeeping proves it would be a no-op -- the blocked
                # state can change at ``_wake_cycle`` (front-end readiness /
                # a known completion), on a completion notification (which
                # resets the wake), or -- for queue-blocked cores -- after an
                # issue event.  Strict-tick keeps the ungated reference path.
                if (
                    strict
                    or cycle >= core._wake_cycle
                    or (prev_issued and core._retry_on_issue)
                ):
                    while core.try_issue(cycle, router):
                        pass
                # Finish state only changes inside try_issue (retirement),
                # which has run for this iteration, so the check fuses here.
                if core.finish_cycle is None:
                    finished_all = False
                elif parking and not core.bypass_llc:
                    park_due = True
            issued, hint = router_tick(cycle, force=strict)
            completed = router_drain()
            if completed:
                for request in completed:
                    if request.request_type is _READ:
                        cores[request.core_id].notify_completion(request, cycle)
                    # The request is dead: nothing references it any more
                    # (cores drop theirs during notification), so it can be
                    # recycled for the next dispatch.
                    release(request)
            if park_due:
                parking = self._park_cores(live, parked)

            if finished_all:
                break
            if cycle >= max_cycles:
                raise SimulationTruncated(
                    f"simulation reached max_cycles={max_cycles} with unfinished "
                    f"cores ({self.workload_name}, {self.config.mechanism})"
                )

            prev_issued = issued
            if completed and not issued:
                # Completions that land on the current cycle unblock the
                # cores immediately; give them a chance to react before
                # advancing time (otherwise a final same-cycle completion
                # would look like a deadlock).
                continue
            if strict:
                cycle += 1
                continue
            # The router hint is exact after an issued command too, so time
            # advances the same way whether or not a command issued.
            wake = hint
            for core in live:
                # Finished cores keep replaying their trace to preserve
                # memory contention (weighted-speedup methodology), so a
                # live finished core's issue events are real events.  A
                # parked one's are not: it only hits the LLC, which no
                # other component observes before the loop exits.  The
                # cached wake is exact: it was computed when the core last
                # blocked and nothing has changed it since (else the core
                # would have been eligible above and refreshed it).
                event = core._wake_cycle
                if issued and core._retry_on_issue:
                    # The issue may have freed the queue space it waits for.
                    event = cycle + 1
                if event < wake:
                    wake = event
            if wake <= cycle:
                # A completion drained at an issuing cycle reset a core's
                # wake: it reacts on the next cycle.
                cycle += 1
            elif wake >= FAR_FUTURE:
                # Parked cores do not keep a stalled run alive.
                raise RuntimeError(
                    f"simulation deadlock at cycle {cycle} "
                    f"({self.workload_name}, {self.config.mechanism})"
                )
            else:
                cycle = min(wake, max_cycles)

        for core in parked:
            core.replay_hits(cycle)
        self.cycle = cycle
        return self._build_result(cycle)

    def _park_cores(self, live: List[Core], parked: List[Core]) -> bool:
        """Move every live core whose replay can only hit the LLC to ``parked``.

        A core parks when it is :attr:`~Core.quiet` and reads through an
        LLC that can never evict in this run.  Finishing retires a whole
        pass of the trace, so every line of it is then resident for good
        and every later dispatch hits; nothing reads what a hit changes
        (the hit counter, the line's LRU position and dirty bit) before the
        loop exits and :meth:`Core.replay_hits` makes those dispatches.
        docs/ARCHITECTURE.md ("Parked cores") has the full argument.
        Returns False when no core may park for the rest of the run.
        """
        if self._llc_never_evicts is None:
            self._llc_never_evicts = self.llc.never_evicts(
                line for core in self.cores if not core.bypass_llc for line in core._lines
            )
        if not self._llc_never_evicts:
            return False
        for core in list(live):
            if core.quiet and not core.bypass_llc:
                live.remove(core)
                parked.append(core)
        return True

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def _channel_record(self, channel: int, cycles: int) -> Dict[str, object]:
        """The per-channel stats record of one channel."""
        setup = self.setups[channel]
        device = self.devices[channel]
        stats = self.controllers[channel].stats
        channel_mitigation: Dict[str, int] = {}
        borrowed_rows = 0
        for mechanism in setup.mechanisms():
            for key, value in mechanism.stats.as_dict().items():
                channel_mitigation[key] = channel_mitigation.get(key, 0) + value
            borrowed_rows += mechanism.stats.borrowed_refreshes
        breakdown = self.energy_model.compute(
            command_counts=device.command_counts,
            cycles=cycles,
            act_energy_multiplier=setup.act_energy_multiplier,
            internal_victim_rows=device.internal_victim_rows,
            borrowed_refresh_rows=borrowed_rows,
        )
        return {
            "channel": channel,
            "reads_served": stats.reads_served,
            "writes_served": stats.writes_served,
            "row_hits": stats.row_hits,
            "row_misses": stats.row_misses,
            "row_conflicts": stats.row_conflicts,
            "refreshes": stats.refreshes,
            "rfms": stats.rfms,
            "backoffs_observed": stats.backoffs_observed,
            "preventive_refresh_rows": stats.preventive_refresh_rows,
            "total_read_latency": stats.total_read_latency,
            "average_read_latency": stats.average_read_latency(),
            "command_counts": dict(device.command_counts),
            "mitigation_stats": channel_mitigation,
            "energy_nj": breakdown.total,
            "energy_breakdown": breakdown.as_dict(),
        }

    def _build_result(self, cycles: int) -> SimulationResult:
        channel_records = [
            self._channel_record(channel, cycles)
            for channel in range(self.num_channels)
        ]
        totals = aggregate_channel_stats(channel_records)

        mitigation_stats: Dict[str, int] = {}
        for record in channel_records:
            for key, value in record["mitigation_stats"].items():
                mitigation_stats[key] = mitigation_stats.get(key, 0) + value
        if self.oracle is not None:
            mitigation_stats.update(self.oracle.stats_dict())

        # The raw latency sum stays per-channel only; system-wide it is
        # reported as the read-weighted average (matching the seed layout).
        controller_stats = {
            key: totals[key]
            for key in CHANNEL_COUNTER_KEYS
            if key != "total_read_latency"
        }
        controller_stats["average_read_latency"] = totals["average_read_latency"]
        controller_stats["llc_miss_rate"] = self.llc.stats.miss_rate
        return SimulationResult(
            mechanism=self.config.mechanism,
            nrh=self.config.nrh,
            workload=self.workload_name,
            cycles=cycles,
            core_ipcs=[core.ipc() for core in self.cores],
            core_names=[trace.name for trace in self.traces],
            command_counts=totals["command_counts"],
            controller_stats=controller_stats,
            mitigation_stats=mitigation_stats,
            energy_nj=totals["energy_nj"],
            energy_breakdown=totals["energy_breakdown"],
            is_secure=self.setup.is_secure,
            channel_stats=channel_records,
        )


def simulate(
    config: SystemConfig,
    traces: Sequence[Trace],
    workload_name: Optional[str] = None,
    oracle: Optional["DisturbanceOracle"] = None,
    strict_tick: bool = False,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`SystemSimulator` and run it.

    When ``oracle`` (a :class:`~repro.attacks.oracle.DisturbanceOracle`) is
    given, its ground-truth disturbance statistics are merged into the
    result's ``mitigation_stats`` under ``oracle_*`` keys.  ``strict_tick``
    selects the cycle-stepped debug path (see :class:`SystemSimulator`).
    ``seed`` seeds the mechanisms' RNGs (PARA), ``seed + i`` on channel
    ``i``; a sweep job passes its own seed.
    """
    return SystemSimulator(
        config, traces, workload_name=workload_name, oracle=oracle,
        strict_tick=strict_tick, seed=seed,
    ).run()
