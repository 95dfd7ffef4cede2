"""Composable analyses, finished once per workload.

The public experiment API (see ``docs/ANALYSIS.md``): an
:class:`Analysis` implements ``finish``/``result`` and pulls what it
needs from its :class:`WorkloadContext` (the lazily loaded trace, loop
index and detector, the derived-store memo), an
:class:`AnalysisSuite` finishes every registered pass per workload, and
:meth:`SimulationSession.analyze(suite)
<repro.pipeline.session.SimulationSession.analyze>` runs it over every
workload -- at most one trace walk per workload, however many
experiments are registered.
"""

from repro.analysis.base import Analysis, WorkloadContext
from repro.analysis.driver import analyze_trace
from repro.analysis.passes import (
    DataSpecPass,
    LoopStatisticsPass,
    SpeculationPass,
    effective_timing,
    shared_dataspec_stats,
    shared_simulate,
    shared_simulate_many,
    shared_table_sim,
)
from repro.analysis.registry import (
    make_analysis,
    register_analysis,
)
from repro.analysis.suite import AnalysisSuite

__all__ = [
    "Analysis",
    "AnalysisSuite",
    "DataSpecPass",
    "LoopStatisticsPass",
    "SpeculationPass",
    "WorkloadContext",
    "analyze_trace",
    "effective_timing",
    "make_analysis",
    "register_analysis",
    "shared_dataspec_stats",
    "shared_simulate",
    "shared_simulate_many",
    "shared_table_sim",
]
