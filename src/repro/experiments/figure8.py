"""Figure 8: data-speculation statistics (paper section 4).

For each workload a *full* trace (register/memory values) is analyzed:
most-frequent-path coverage and live-in predictability with last+stride
predictors of unbounded capacity.  The suite row aggregates the raw
counters, mirroring the paper's all-SPEC95 percentages (same path ~85%).

The full-trace study is shared through ``ctx.shared``: when the
extensions experiment runs in the same suite, the trace is generated
and analyzed once, not twice.
"""

from repro.analysis import Analysis, register_analysis, \
    shared_dataspec_stats
from repro.core.dataspec import DataSpecStats
from repro.experiments.report import ExperimentResult

#: Full traces are an order of magnitude heavier than control-flow
#: traces; the study uses a bounded prefix per workload.
FULL_TRACE_LIMIT = 150_000


@register_analysis("figure8")
class Figure8Analysis(Analysis):
    def __init__(self, full_trace_limit=FULL_TRACE_LIMIT):
        self.full_trace_limit = full_trace_limit
        self._total = DataSpecStats("SUITE")
        self._rows = []
        self._per_bench = {}

    def finish(self, ctx):
        stats = shared_dataspec_stats(ctx, self.full_trace_limit)
        self._per_bench[ctx.name] = stats
        self._rows.append(stats.as_row())
        self._total.merge(stats)

    def result(self):
        rows = list(self._rows)
        rows.insert(0, self._total.as_row())
        return ExperimentResult(
            "Figure 8: data speculation statistics (%% of iterations)",
            DataSpecStats.FIGURE8_HEADERS,
            rows,
            notes=[
                "paper suite values: same path ~85%, with lr pred > lm "
                "pred and all lr > all lm > all data",
                "our compiler keeps scalars in frame memory, so induction-"
                "variable predictability appears under lm (see "
                "docs/ARCHITECTURE.md)",
                "full traces bounded to %d instructions per workload"
                % self.full_trace_limit,
            ],
            extra={"per_bench": self._per_bench, "suite": self._total},
        )


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure8"))
