"""Figure 5: TPC with infinite thread units.

The idealized limit study: unlimited TUs, speculation on every remaining
iteration the moment a loop execution is detected.  The paper plots each
benchmark twice -- the whole run and the first 10^9 instructions -- to
justify evaluating reduced runs; we mirror that with the full trace and
a quarter-length prefix.

The prefix no longer needs a second trace replay: a second detector
rides the same record stream, fed only the records inside the prefix
(``total_instructions`` is known from the trace header up front).
"""

from repro.analysis import Analysis, register_analysis
from repro.analysis.passes import derived_memo
from repro.core.detector import LoopDetector
from repro.core.speculation import simulate_infinite
from repro.core.speculation.metrics import SpeculationResult
from repro.experiments.report import ExperimentResult


def _infinite(ctx, parts, build_index):
    """An infinite-TU simulation of ``build_index()``, via the
    workload's derived store (the result is a pure function of the
    trace and the index parameters in *parts*); *build_index* is only
    called on a miss."""
    return derived_memo(
        ctx, parts, SpeculationResult.from_state,
        lambda: simulate_infinite(build_index(), name=ctx.name),
        SpeculationResult.state)


@register_analysis("figure5")
class Figure5Analysis(Analysis):
    wants_records = True

    def __init__(self):
        self._rows = []
        self._series = {}
        self._prefix_detector = None
        self._prefix_limit = None

    def begin(self, ctx):
        # clip() semantics: a quarter prefix, at least one instruction,
        # never longer than the trace itself.
        self._prefix_limit = min(max(1, ctx.total_instructions // 4),
                                 ctx.total_instructions)
        # When the reduced-run result is already in the derived store,
        # the whole prefix detection pass is unnecessary -- the prefix
        # index existed only to feed that one simulation -- and so are
        # this workload's records.
        reduced = derived_memo(ctx, self._reduced_parts(),
                               SpeculationResult.from_state)
        self._prefix_detector = None if reduced is not None \
            else LoopDetector(cls_capacity=ctx.cls_capacity)
        self.wants_records = self._prefix_detector is not None

    def _reduced_parts(self):
        return ("simulate-inf", "prefix%d" % self._prefix_limit)

    def feed_batch(self, batch):
        # Zero-copy columnar path: the prefix is a slice of the sorted
        # seq column, and the prefix detector consumes it as a batch.
        if self._prefix_detector is None:
            return
        prefix = batch.prefix(self._prefix_limit)
        if len(prefix):
            self._prefix_detector.feed_batch(prefix)

    def abort(self, ctx):
        self._prefix_detector = None

    def finish(self, ctx):
        full = _infinite(ctx, ("simulate-inf",), lambda: ctx.index)
        detector = self._prefix_detector

        def prefix_index():
            detector.finish(self._prefix_limit)
            return detector.index(self._prefix_limit)

        reduced = _infinite(ctx, self._reduced_parts(), prefix_index)
        self._rows.append((ctx.name, round(full.tpc, 2),
                           round(reduced.tpc, 2)))
        self._series[ctx.name] = {"full": full, "reduced": reduced}
        self._prefix_detector = None

    def result(self):
        return ExperimentResult(
            "Figure 5: TPC for infinite TUs (full run vs 1/4 prefix)",
            ("program", "TPC (all instr)", "TPC (prefix)"),
            self._rows,
            notes=["log-scale figure in the paper; the prefix behaving "
                   "like the full run justifies reduced evaluations"],
            extra={"series": self._series},
        )


def run(runner):
    from repro.experiments.runner import run_experiment
    return run_experiment("figure5", runner)


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure5"))
