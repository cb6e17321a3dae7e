"""Experiment harness: sweep engine, result cache, aggregation and figure data."""

from repro.experiments.cache import ResultCache
from repro.experiments.runner import MechanismComparison, compare, default_mixes
from repro.experiments.sweep import SimJob, SweepEngine, SweepSpec
from repro.experiments import figures

__all__ = [
    "MechanismComparison",
    "ResultCache",
    "SimJob",
    "SweepEngine",
    "SweepSpec",
    "compare",
    "default_mixes",
    "figures",
]
