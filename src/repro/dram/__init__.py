"""DRAM device substrate.

This package models a DDR5-like DRAM device at the granularity the Chronus
paper's evaluation requires: banks with open/closed rows, the timing
parameters that PRAC changes (Table 1 of the paper), periodic refresh,
refresh management (RFM) and the ``alert_n`` back-off signal used by
on-DRAM-die read-disturbance mitigation mechanisms.
"""

from repro.dram.commands import Command, CommandKind
from repro.dram.organization import DramAddress, DramOrganization
from repro.dram.timing import TimingParams, ddr5_3200an
from repro.dram.device import DramDevice, TimingViolation

__all__ = [
    "Command",
    "CommandKind",
    "DramAddress",
    "DramOrganization",
    "TimingParams",
    "ddr5_3200an",
    "DramDevice",
    "TimingViolation",
]
