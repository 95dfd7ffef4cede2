"""One module per table/figure of the paper, plus ablations.

Every experiment is a registered streaming
:class:`~repro.analysis.base.Analysis` pass (see ``docs/ANALYSIS.md``);
:meth:`SimulationSession.analyze
<repro.pipeline.session.SimulationSession.analyze>` feeds any number of
them from one event-stream replay per workload.  Each module also keeps
a ``run(session)`` convenience returning its
:class:`~repro.experiments.report.ExperimentResult` object(s).  The
command line entry point is ``python -m repro.experiments.runner``;
each module is also runnable directly, e.g. ``python -m
repro.experiments.table1 --jobs 4``.
"""

from repro.analysis import AnalysisSuite
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import (
    available_experiments,
    build_suite,
    extra_experiments,
    run_experiment,
    select_experiments,
)
from repro.pipeline import PipelineConfig, SimulationSession

__all__ = [
    "AnalysisSuite",
    "ExperimentResult",
    "PipelineConfig",
    "SimulationSession",
    "available_experiments",
    "build_suite",
    "extra_experiments",
    "run_experiment",
    "select_experiments",
]
