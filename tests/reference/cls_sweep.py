"""The CLS-capacity sweep's reference: a bare stack walked over every
record batch, executions tallied per event -- the sweep's computation
before the canonical loop index could answer it -- plus a harness that
reads the production sweep's per-workload counts.
"""

from repro.analysis import AnalysisSuite
from repro.core.cls import CurrentLoopStack
from repro.core.events import ExecutionStart, SingleIteration
from repro.experiments.ablations import AblationsAnalysis
from repro.obs.collector import Collector, activate, deactivate


def walked_cls_counts(batches, capacity):
    """``[overflow drops, executions]`` of a bare CLS of *capacity*
    entries walked over *batches*."""
    stack = CurrentLoopStack(capacity=capacity)
    executions = 0
    for batch in batches:
        for event in stack.process_batch(batch):
            if type(event) is ExecutionStart \
                    or type(event) is SingleIteration:
                executions += 1
    return [stack.overflow_count, executions]


class _RecordingSweep(AblationsAnalysis):
    """The CLS sweep alone, keeping each workload's counts."""

    def __init__(self, capacities):
        super().__init__(capacities=capacities, parts=("cls",))
        self.counts = {}

    def _cls_sweep_counts(self, ctx, capacity):
        counts = super()._cls_sweep_counts(ctx, capacity)
        self.counts[ctx.name, capacity] = counts
        return counts


def production_sweep(analyze, capacities):
    """Run the production CLS sweep through *analyze* (a session's
    ``analyze``, or any callable taking an
    :class:`~repro.analysis.AnalysisSuite`).

    Returns ``(counts, (walks, shortcuts))``: ``counts`` maps
    ``(workload, capacity)`` to ``[overflow drops, executions]``, and
    the pair is the run's ``cls.sweep_walks``/``cls.sweep_shortcuts``
    counters.
    """
    analysis = _RecordingSweep(capacities)
    collector = activate(Collector())
    try:
        analyze(AnalysisSuite([analysis]))
    finally:
        deactivate()
    return analysis.counts, (
        collector.counters.get("cls.sweep_walks", 0),
        collector.counters.get("cls.sweep_shortcuts", 0))
