"""Full-system simulation: configuration, the simulator and metrics."""

from repro.system.config import SystemConfig, paper_system_config, appendix_e_system_config
from repro.system.metrics import (
    SimulationResult,
    weighted_speedup,
    normalized_weighted_speedup,
    max_slowdown,
)
from repro.system.simulator import SimulationTruncated, SystemSimulator, simulate

__all__ = [
    "SystemConfig",
    "paper_system_config",
    "appendix_e_system_config",
    "SimulationResult",
    "weighted_speedup",
    "normalized_weighted_speedup",
    "max_slowdown",
    "SimulationTruncated",
    "SystemSimulator",
    "simulate",
]
