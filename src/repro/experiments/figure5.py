"""Figure 5: TPC with infinite thread units.

The idealized limit study: unlimited TUs, speculation on every remaining
iteration the moment a loop execution is detected.  The paper plots each
benchmark twice -- the whole run and the first 10^9 instructions -- to
justify evaluating reduced runs; we mirror that with the full trace and
a quarter-length prefix.

The prefix needs no walk of its own: its loop index is read from the
canonical one (:meth:`~repro.core.detector.LoopIndex.prefix`), which
already saw every record of the prefix.
"""

from repro.analysis import Analysis, register_analysis
from repro.core.speculation import simulate_infinite
from repro.core.speculation.metrics import SpeculationResult
from repro.experiments.report import ExperimentResult


def _infinite(ctx, parts, build_index):
    """An infinite-TU simulation of ``build_index()``, via the
    workload's derived store (the result is a pure function of the
    trace and the index parameters in *parts*); *build_index* is only
    called on a miss."""
    return ctx.memo(
        parts, SpeculationResult.from_state,
        lambda: simulate_infinite(build_index(), name=ctx.name),
        SpeculationResult.state)


@register_analysis("figure5")
class Figure5Analysis(Analysis):
    def __init__(self):
        self._rows = []
        self._series = {}

    def finish(self, ctx):
        # clip() semantics: a quarter prefix, at least one instruction,
        # never longer than the trace itself.
        limit = min(max(1, ctx.total_instructions // 4),
                    ctx.total_instructions)
        full = _infinite(ctx, ("simulate-inf",), lambda: ctx.index)
        reduced = _infinite(ctx, ("simulate-inf", "prefix%d" % limit),
                            lambda: ctx.index.prefix(limit))
        self._rows.append((ctx.name, round(full.tpc, 2),
                           round(reduced.tpc, 2)))
        self._series[ctx.name] = {"full": full, "reduced": reduced}

    def result(self):
        return ExperimentResult(
            "Figure 5: TPC for infinite TUs (full run vs 1/4 prefix)",
            ("program", "TPC (all instr)", "TPC (prefix)"),
            self._rows,
            notes=["log-scale figure in the paper; the prefix behaving "
                   "like the full run justifies reduced evaluations"],
            extra={"series": self._series},
        )


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure5"))
