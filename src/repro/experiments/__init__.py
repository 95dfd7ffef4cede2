"""One module per table/figure of the paper, plus ablations.

Every experiment is a registered streaming
:class:`~repro.analysis.base.Analysis` pass (see ``docs/ANALYSIS.md``);
:meth:`SimulationSession.analyze
<repro.pipeline.session.SimulationSession.analyze>` feeds any number of
them from one event-stream replay per workload, and
:func:`repro.experiments.runner.run_experiment` runs one by name.  The
command line entry point is ``python -m repro.experiments.runner``;
each module is also runnable directly, e.g. ``python -m
repro.experiments.table1 --jobs 4``.  This package does not import the
runner, so ``python -m`` executes it fresh.
"""

from repro.analysis import AnalysisSuite
from repro.experiments.report import ExperimentResult
from repro.pipeline import PipelineConfig, SimulationSession

__all__ = [
    "AnalysisSuite",
    "ExperimentResult",
    "PipelineConfig",
    "SimulationSession",
]
