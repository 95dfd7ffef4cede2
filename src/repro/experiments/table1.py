"""Table 1: loop statistics of the workload suite.

Columns follow the paper: dynamic instructions, static loops, average
iterations per execution, average instructions per iteration, and
average/maximum nesting level.  Statistics come from
:func:`~repro.analysis.passes.shared_loop_statistics` at ``finish``:
restored from the derived store, or aggregated over the completed loop
index and shared with every other loop-statistics consumer.
"""

from repro.analysis import Analysis
from repro.analysis.passes import shared_loop_statistics
from repro.core.loopstats import LoopStatistics
from repro.experiments.report import ExperimentResult


class Table1Analysis(Analysis):
    """Thin declarative wrapper: per-workload loop statistics,
    rendered in the paper's Table 1 shape."""

    def __init__(self):
        self._by_name = {}
        self._rows = []
        self._scale = None

    def finish(self, ctx):
        self._scale = ctx.scale
        stats, _ = shared_loop_statistics(ctx)
        self._by_name[ctx.name] = stats
        self._rows.append(stats.as_row())

    def result(self):
        return ExperimentResult(
            "Table 1: Loop statistics",
            LoopStatistics.ROW_HEADERS,
            self._rows,
            notes=[
                "instr/iter covers detected, fully delimited iterations "
                "(the first iteration of an execution is undetected until "
                "it finishes; see docs/ARCHITECTURE.md)",
                "scale=%d; the paper traces 10^9-10^11 Alpha instructions "
                "per benchmark" % self._scale,
            ],
            extra={"stats": self._by_name},
        )
