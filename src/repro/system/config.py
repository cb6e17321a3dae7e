"""System configuration.

:class:`SystemConfig` bundles every knob of the simulated system, defaulting
to the paper's configuration (Table 2):

* 4.2 GHz, 4-core, 4-wide issue, 128-entry instruction window;
* 8 MiB, 8-way shared LLC with 64 B lines;
* 64-entry read/write queues, FR-FCFS + Cap-4 scheduling, MOP mapping;
* single-channel DDR5, 2 ranks x 8 bank groups x 4 banks, 64 K rows per bank.

``appendix_e_system_config`` reproduces the configuration Appendix E uses to
compare against the real-hardware study of Kim et al.: an eight-core system
with a 4.5x larger LLC, which makes SPEC-2017-like workloads mostly cache
resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.dram.organization import DramOrganization, PAPER_ORGANIZATION


@dataclass(frozen=True)
class SystemConfig:
    """All configuration of one simulated system."""

    # --- processor --------------------------------------------------------
    num_cores: int = 4
    clock_ratio: float = 2.625
    issue_width: int = 4
    window_size: int = 128
    max_outstanding: int = 16

    # --- last-level cache --------------------------------------------------
    llc_size_bytes: int = 8 * 1024 * 1024
    llc_associativity: int = 8
    llc_line_size: int = 64
    llc_hit_latency: int = 16

    # --- memory controller -------------------------------------------------
    read_queue_size: int = 64
    write_queue_size: int = 64
    scheduler_cap: int = 4
    address_mapping: str = "MOP"

    # --- DRAM ---------------------------------------------------------------
    organization: DramOrganization = field(default_factory=lambda: PAPER_ORGANIZATION)

    # --- read-disturbance mitigation ----------------------------------------
    mechanism: str = "None"
    nrh: int = 1024

    #: Core indices that bypass the LLC (used for the §11 performance-attack
    #: study, where the malicious core flushes its own lines).
    attacker_cores: tuple = ()

    #: Use the pre-erratum PRAC timing parameters (Appendix E / Table 4):
    #: tRP and tRC grow but tRAS / tRTP / tWR are not reduced.
    legacy_prac_timings: bool = False

    # --- run control ---------------------------------------------------------
    #: Hard limit on simulated DRAM cycles (safety net for runaway configs).
    max_cycles: int = 200_000_000

    @property
    def channels(self) -> int:
        """Number of independent memory channels of the simulated system.

        The knob lives on the DRAM organization (which the cache key already
        covers), so exposing it here adds no new config field and keeps every
        pre-existing single-channel cache key byte-identical.
        """
        return self.organization.channels

    def with_mechanism(self, mechanism: str, nrh: Optional[int] = None) -> "SystemConfig":
        """Return a copy configured for another mechanism / threshold."""
        return replace(self, mechanism=mechanism, nrh=self.nrh if nrh is None else nrh)

    def with_channels(self, channels: int) -> "SystemConfig":
        """Return a copy scaled to ``channels`` memory channels."""
        return replace(self, organization=self.organization.with_channels(channels))

    def with_overrides(self, **kwargs) -> "SystemConfig":
        """Return a copy with arbitrary fields replaced.

        ``channels`` is accepted as a virtual field and forwarded to
        :meth:`with_channels`, so sweep and CLI override paths can scale the
        channel count without knowing it lives on the organization.
        """
        channels = kwargs.pop("channels", None)
        config = replace(self, **kwargs) if kwargs else self
        if channels is not None:
            config = config.with_channels(channels)
        return config


def paper_system_config(mechanism: str = "None", nrh: int = 1024, **overrides) -> SystemConfig:
    """The main-evaluation system configuration (Table 2)."""
    return SystemConfig(mechanism=mechanism, nrh=nrh).with_overrides(**overrides)


def appendix_e_system_config(mechanism: str = "None", nrh: int = 1024, **overrides) -> SystemConfig:
    """The Appendix E configuration: 8 cores and a 4.5x larger LLC."""
    config = SystemConfig(
        mechanism=mechanism,
        nrh=nrh,
        num_cores=8,
        llc_size_bytes=36 * 1024 * 1024,
        address_mapping="MOP",
    )
    return config.with_overrides(**overrides)
