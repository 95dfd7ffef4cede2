"""Figure 6: per-benchmark TPC for 2/4/8/16 TUs under the STR policy.

The paper's headline numbers: suite-average TPC of 1.65 / 2.6 / 4 / 6.2
for 2 / 4 / 8 / 16 thread units.
"""

from repro.analysis import Analysis, register_analysis, \
    shared_simulate_many
from repro.experiments.report import ExperimentResult, TimingMeta

TU_COUNTS = (2, 4, 8, 16)

#: Figure 6 is inherently a STR-policy experiment.
POLICY = "str"


class Figure6Tables:
    """Accumulates per-workload TU sweeps into the figure-6 table.

    One fold per workload (:meth:`add_workload`), then
    :meth:`results`.  The direct :class:`Figure6Analysis` and the sweep
    store's query layer (:mod:`repro.sweep.query`) both render through
    this builder, which is what keeps a ``runner query`` report
    byte-identical to the direct ``runner figure6`` output.
    """

    def __init__(self, tu_counts=TU_COUNTS):
        self.tu_counts = tuple(tu_counts)
        self._rows = []
        self._results = {}
        self._sums = {tus: 0.0 for tus in self.tu_counts}
        self._count = 0
        self._timing = TimingMeta()

    def add_workload(self, name, results):
        """Fold one workload; ``results(tus)`` returns the STR-policy
        :class:`~repro.core.speculation.metrics.SpeculationResult` at
        that TU count."""
        row = [name]
        self._results[name] = {}
        for tus in self.tu_counts:
            result = self._timing.fold(results(tus))
            self._results[name][tus] = result
            self._sums[tus] += result.tpc
            row.append(round(result.tpc, 2))
        self._rows.append(tuple(row))
        self._count += 1

    def results(self):
        """The :class:`ExperimentResult` table (AVG row on top)."""
        rows = list(self._rows)
        avg_row = ["AVG"] + [round(self._sums[tus] / self._count, 2)
                             for tus in self.tu_counts]
        rows.insert(0, tuple(avg_row))
        return ExperimentResult(
            "Figure 6: TPC under STR for 2/4/8/16 TUs",
            ("program",) + tuple("%d TUs" % t for t in self.tu_counts),
            rows,
            notes=["paper averages: 1.65 / 2.6 / 4 / 6.2"],
            extra={"results": self._results},
            meta=self._timing.as_meta(),
        )


@register_analysis("figure6")
class Figure6Analysis(Analysis):
    def __init__(self, tu_counts=TU_COUNTS):
        self._tables = Figure6Tables(tu_counts)
        self.tu_counts = self._tables.tu_counts

    def finish(self, ctx):
        # Whole TU sweep in one fused grid call.
        results = dict(zip(self.tu_counts, shared_simulate_many(
            ctx, [(tus, POLICY, None) for tus in self.tu_counts])))
        self._tables.add_workload(ctx.name, results.__getitem__)

    def result(self):
        return self._tables.results()


def run(runner):
    from repro.experiments.runner import run_experiment
    return run_experiment("figure6", runner)


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure6"))
