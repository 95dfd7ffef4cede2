"""Figure 6: per-benchmark TPC for 2/4/8/16 TUs under the STR policy.

The paper's headline numbers: suite-average TPC of 1.65 / 2.6 / 4 / 6.2
for 2 / 4 / 8 / 16 thread units.
"""

from repro.analysis import Analysis, register_analysis
from repro.analysis.passes import int_axis, shared_simulate_sims
from repro.experiments.report import ExperimentResult, TimingMeta

TU_COUNTS = (2, 4, 8, 16)

#: Figure 6 is inherently a STR-policy experiment.
POLICY = "str"


@register_analysis("figure6")
class Figure6Analysis(Analysis):
    #: No per-workload loop statistics, only :attr:`sims`.
    loopstats = False

    def __init__(self, tu_counts=TU_COUNTS):
        self.tu_counts = int_axis("TU counts", tu_counts, minimum=1)
        #: The ``(policy, tus, timing, spawn_cost)`` simulations priced
        #: per workload (timing ``None``: the session default).
        self.sims = [(POLICY, tus, None, 0) for tus in self.tu_counts]
        self._rows = []
        self._results = {}
        self._sums = dict.fromkeys(self.tu_counts, 0.0)
        self._timing = TimingMeta()

    def finish(self, ctx):
        row = [ctx.name]
        results = self._results[ctx.name] = {}
        # Whole TU sweep in one fused grid call.
        for tus, result in zip(self.tu_counts,
                               shared_simulate_sims(ctx, self.sims)):
            results[tus] = self._timing.fold(result)
            self._sums[tus] += result.tpc
            row.append(round(result.tpc, 2))
        self._rows.append(tuple(row))

    def result(self):
        count = len(self._rows)
        avg_row = ("AVG",) + tuple(round(self._sums[tus] / count, 2)
                                   for tus in self.tu_counts)
        return ExperimentResult(
            "Figure 6: TPC under STR for 2/4/8/16 TUs",
            ("program",) + tuple("%d TUs" % t for t in self.tu_counts),
            [avg_row] + self._rows,
            notes=["paper averages: 1.65 / 2.6 / 4 / 6.2"],
            extra={"results": self._results},
            meta=self._timing.as_meta(),
        )


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure6"))
