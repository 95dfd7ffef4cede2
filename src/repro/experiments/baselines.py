"""Baseline: conventional branch prediction over the suite.

Supports the paper's premise that loop-closing branches are highly
predictable -- the reason loops anchor thread speculation.  Reports
bimodal (Smith-style, the paper's reference [8]) and gshare (two-level,
reference [13]) accuracy split into closing vs other branches.

Both predictors walk the workload's trace (``ctx.trace``) together
through one :class:`~repro.core.branchpred.BranchPredictionStream`.
The two reports persist in the derived store; a workload whose reports
are there reads no trace.
"""

from repro.analysis import Analysis, register_analysis
from repro.core.branchpred import (
    BimodalPredictor,
    BranchPredictionReport,
    BranchPredictionStream,
    GSharePredictor,
)
from repro.experiments.report import ExperimentResult

#: Predictor geometries (also part of the derived-store key).
BIMODAL_ENTRIES = 2048
GSHARE_ENTRIES = 4096
GSHARE_HISTORY_BITS = 10

#: The derived-store parts of a workload's ``(bimodal, gshare)``
#: reports.
_REPORTS_PARTS = ("branchpred", BIMODAL_ENTRIES, GSHARE_ENTRIES,
                  GSHARE_HISTORY_BITS)


def _reports_state(reports):
    return [report.state() for report in reports]


def _reports_from_state(states):
    bimodal, gshare = states
    return (BranchPredictionReport.from_state(bimodal),
            BranchPredictionReport.from_state(gshare))


def _predicted(trace, name):
    """The ``(bimodal, gshare)`` reports of one walk over *trace*."""
    stream = BranchPredictionStream([
        BimodalPredictor(BIMODAL_ENTRIES),
        GSharePredictor(GSHARE_ENTRIES, GSHARE_HISTORY_BITS)])
    for batch in trace.batches:
        stream.feed_batch(batch)
    return stream.reports(name)


@register_analysis("baselines")
class BaselinesAnalysis(Analysis):
    def __init__(self):
        self._rows = []
        self._reports = {}
        self._totals = {"closing_c": 0, "closing_t": 0, "other_c": 0,
                        "other_t": 0, "gshare_c": 0, "gshare_t": 0}

    def finish(self, ctx):
        bimodal, gshare = ctx.memo(
            _REPORTS_PARTS, _reports_from_state,
            lambda: _predicted(ctx.trace, ctx.name), _reports_state)
        self._reports[ctx.name] = {"bimodal": bimodal, "gshare": gshare}
        self._rows.append((ctx.name,
                           round(100 * bimodal.closing_accuracy, 2),
                           round(100 * bimodal.other_accuracy, 2),
                           round(100 * bimodal.overall_accuracy, 2),
                           round(100 * gshare.overall_accuracy, 2)))
        totals = self._totals
        totals["closing_c"] += bimodal.closing_correct
        totals["closing_t"] += bimodal.closing_total
        totals["other_c"] += bimodal.other_correct
        totals["other_t"] += bimodal.other_total
        totals["gshare_c"] += (gshare.closing_correct
                               + gshare.other_correct)
        totals["gshare_t"] += gshare.closing_total + gshare.other_total

    def result(self):
        totals = self._totals
        suite_row = (
            "SUITE",
            round(100 * totals["closing_c"]
                  / max(1, totals["closing_t"]), 2),
            round(100 * totals["other_c"] / max(1, totals["other_t"]), 2),
            round(100 * (totals["closing_c"] + totals["other_c"])
                  / max(1, totals["closing_t"] + totals["other_t"]), 2),
            round(100 * totals["gshare_c"]
                  / max(1, totals["gshare_t"]), 2),
        )
        rows = list(self._rows)
        rows.insert(0, suite_row)
        return ExperimentResult(
            "Baseline: branch prediction accuracy (bimodal / gshare)",
            ("program", "closing %", "other %", "bimodal all %",
             "gshare all %"),
            rows,
            notes=["the paper's premise: loop-closing branches are "
                   "highly predictable"],
            extra={"reports": self._reports},
        )


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("baselines"))
