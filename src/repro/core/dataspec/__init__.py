"""Data-speculation study: path profiles and live-in predictability."""

from repro.core.dataspec.paths import PathProfile
from repro.core.dataspec.stats import DataSpecStats, DataSpeculationAnalyzer

__all__ = [
    "PathProfile",
    "DataSpecStats",
    "DataSpeculationAnalyzer",
]
