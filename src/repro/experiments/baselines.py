"""Baseline: conventional branch prediction over the suite.

Supports the paper's premise that loop-closing branches are highly
predictable -- the reason loops anchor thread speculation.  Reports
bimodal (Smith-style, the paper's reference [8]) and gshare (two-level,
reference [13]) accuracy split into closing vs other branches.

Both predictors ride the shared record stream through one
:class:`~repro.core.branchpred.BranchPredictionStream` per workload --
one pass instead of the former two-passes-per-predictor replay.  The
two reports persist in the derived store; a workload whose reports are
there wants no records.
"""

from repro.analysis import Analysis, register_analysis
from repro.analysis.passes import derived_memo
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


@register_analysis("baselines")
class BaselinesAnalysis(Analysis):
    wants_records = True

    def __init__(self):
        self._rows = []
        self._reports = {}
        self._totals = {"closing_c": 0, "closing_t": 0, "other_c": 0,
                        "other_t": 0, "gshare_c": 0, "gshare_t": 0}
        self._stream = None

    def begin(self, ctx):
        cached = derived_memo(ctx, _REPORTS_PARTS, _reports_from_state)
        self._stream = None if cached is not None else \
            BranchPredictionStream([
                BimodalPredictor(BIMODAL_ENTRIES),
                GSharePredictor(GSHARE_ENTRIES, GSHARE_HISTORY_BITS)])
        self.wants_records = self._stream is not None

    def feed_batch(self, batch):
        self._stream.feed_batch(batch)

    def abort(self, ctx):
        self._stream = None

    def finish(self, ctx):
        stream = self._stream
        bimodal, gshare = derived_memo(
            ctx, _REPORTS_PARTS, _reports_from_state,
            lambda: stream.reports(ctx.name), _reports_state)
        self._stream = None
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
