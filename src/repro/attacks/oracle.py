"""Ground-truth read-disturbance oracle.

The mitigation mechanisms under test keep their *own* activation counters --
trusting those to decide whether an attack succeeded would let a broken
mechanism grade its own homework.  :class:`DisturbanceOracle` is an
independent observer the simulator can attach to a run:

* it counts, per (channel, bank, row), the activations a row has received
  since its victims were last refreshed (by a preventive refresh, an RFM, or
  a borrowed refresh), mirroring the quantity the paper's analytical security
  model bounds ("maximum activation count of any single row"), and
* it records the peak of that quantity and whether it ever reached the
  configured RowHammer threshold ``N_RH`` -- i.e. whether a bit flip
  *escaped* the mitigation.

Event sources (wired up by :class:`~repro.system.simulator.SystemSimulator`):

* every ACT, via :meth:`~repro.dram.device.DramDevice.add_activation_listener`;
* every victim refresh, via
  :meth:`~repro.core.mitigation.MitigationMechanism.add_mitigation_listener`.
  A refresh event names the aggressor row whose victims were refreshed, or
  ``None`` when the DRAM chip picks the aggressor itself (PRFM's RFM): the
  oracle then credits the defence with its *best possible* choice -- the
  currently hottest row of the bank -- matching the generous assumption of
  the Eq. 1 analysis.

On a multi-channel system the simulator tags each event with the originating
channel, so the oracle can report both system-wide and per-channel peaks --
the per-channel view is how the red-team path proves that an attack aimed at
one channel leaves the rows of every other channel untouched.

Partial refreshes (PARA refreshes a single neighbour per trigger) scale the
aggressor's count down proportionally instead of clearing it, which keeps the
oracle deterministic while modelling that most of the aggressor's victims
remain disturbed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.mitigation import MitigationMechanism


class DisturbanceOracle:
    """Tracks ground-truth per-row disturbance during one simulation."""

    #: Victim rows refreshed when an aggressor is fully mitigated: both
    #: neighbours within the blast radius, as every mechanism refreshes.
    victims_per_aggressor = MitigationMechanism.victim_rows_per_aggressor

    def __init__(self, nrh: int, num_channels: int = 1) -> None:
        if nrh <= 0:
            raise ValueError("nrh must be positive")
        if num_channels <= 0:
            raise ValueError("num_channels must be positive")
        self.nrh = nrh
        self.num_channels = num_channels

        #: channel -> (bank, row) -> activations since the victims were
        #: refreshed.  One dict per channel keeps every scan (hottest-row
        #: search, per-channel reporting) bounded to the owning channel.
        self._counts: Dict[int, Dict[Tuple[int, int], int]] = {}
        #: channel -> highest activation count any of its rows ever reached.
        self._channel_peaks: Dict[int, int] = {}
        self.max_disturbance = 0
        self.peak_channel: Optional[int] = None
        self.peak_bank: Optional[int] = None
        self.peak_row: Optional[int] = None
        self.first_escape_cycle: Optional[int] = None
        self.activations_observed = 0
        self.mitigation_events = 0

    # ------------------------------------------------------------------ #
    # Event sinks
    # ------------------------------------------------------------------ #
    def on_activate(self, bank_id: int, row: int, cycle: int, channel: int = 0) -> None:
        """Record one activation of (channel, bank, row)."""
        self.activations_observed += 1
        counts = self._counts.setdefault(channel, {})
        key = (bank_id, row)
        count = counts.get(key, 0) + 1
        counts[key] = count
        if count > self._channel_peaks.get(channel, 0):
            self._channel_peaks[channel] = count
        if count > self.max_disturbance:
            self.max_disturbance = count
            self.peak_channel, self.peak_bank, self.peak_row = channel, bank_id, row
        if count >= self.nrh and self.first_escape_cycle is None:
            self.first_escape_cycle = cycle

    def on_victims_refreshed(
        self,
        bank_id: int,
        aggressor_row: Optional[int],
        num_rows: int,
        cycle: int,
        channel: int = 0,
    ) -> None:
        """Record that victims of an aggressor in ``bank_id`` were refreshed.

        Args:
            bank_id: flat bank index within the channel.
            aggressor_row: the mitigated aggressor, or ``None`` when the
                device picked the aggressor itself (the oracle then assumes
                the hottest row of the bank -- the defence's best case).
            num_rows: victim rows actually refreshed; fewer than
                ``victims_per_aggressor`` scales the count instead of
                clearing it.
            cycle: DRAM cycle of the refresh (recorded for symmetry; the
                oracle's bookkeeping is purely count-based).
            channel: channel the refreshing mechanism instance belongs to.
        """
        self.mitigation_events += 1
        if aggressor_row is None:
            aggressor_row = self._hottest_row(channel, bank_id)
            if aggressor_row is None:
                return
        counts = self._counts.get(channel, {})
        key = (bank_id, aggressor_row)
        count = counts.get(key)
        if not count:
            return
        if num_rows >= self.victims_per_aggressor:
            counts[key] = 0
        else:
            # Partial refresh: the un-refreshed victims keep their
            # accumulated disturbance.
            remaining = self.victims_per_aggressor - num_rows
            counts[key] = count * remaining // self.victims_per_aggressor

    def _hottest_row(self, channel: int, bank_id: int) -> Optional[int]:
        """The row of (channel, bank) with the highest current count."""
        best_row: Optional[int] = None
        best_count = 0
        for (bank, row), count in self._counts.get(channel, {}).items():
            if bank == bank_id and count > best_count:
                best_row, best_count = row, count
        return best_row

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def escaped(self) -> bool:
        """True if any row reached ``N_RH`` activations unmitigated."""
        return self.first_escape_cycle is not None

    def current_count(self, bank_id: int, row: int, channel: int = 0) -> int:
        """Current activation count of (channel, bank, row)."""
        return self._counts.get(channel, {}).get((bank_id, row), 0)

    def rows_tracked(self, channel: Optional[int] = None) -> int:
        """Distinct activated rows (of one channel, or system-wide)."""
        if channel is None:
            return sum(len(counts) for counts in self._counts.values())
        return len(self._counts.get(channel, {}))

    def max_disturbance_in_channel(self, channel: int) -> int:
        """Peak activation count ever reached by any row of ``channel``."""
        return self._channel_peaks.get(channel, 0)

    def stats_dict(self) -> Dict[str, int]:
        """Integer stats merged into ``SimulationResult.mitigation_stats``.

        The per-channel keys are only emitted for multi-channel oracles, so
        single-channel results (and their cached entries) are unchanged.
        """
        stats = {
            "oracle_max_disturbance": self.max_disturbance,
            "oracle_escaped": 1 if self.escaped else 0,
            "oracle_first_escape_cycle": (
                -1 if self.first_escape_cycle is None else self.first_escape_cycle
            ),
            "oracle_activations": self.activations_observed,
            "oracle_mitigation_events": self.mitigation_events,
            "oracle_rows_tracked": self.rows_tracked(),
        }
        if self.num_channels > 1:
            stats["oracle_peak_channel"] = (
                -1 if self.peak_channel is None else self.peak_channel
            )
            for channel in range(self.num_channels):
                prefix = f"oracle_ch{channel}"
                stats[f"{prefix}_max_disturbance"] = self.max_disturbance_in_channel(
                    channel
                )
                stats[f"{prefix}_rows_tracked"] = self.rows_tracked(channel)
        return stats
