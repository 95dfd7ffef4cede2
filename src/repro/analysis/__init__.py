"""Composable streaming analyses over one event-stream replay.

The public experiment API (see ``docs/ANALYSIS.md``): an
:class:`Analysis` implements ``begin``/``feed``/``finish``/``result``,
an :class:`AnalysisSuite` fans one workload replay out to every
registered pass, and :meth:`SimulationSession.analyze(suite)
<repro.pipeline.session.SimulationSession.analyze>` streams cached
trace records through the canonical loop detector into the suite --
exactly one replay per workload, however many experiments are
registered.
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
