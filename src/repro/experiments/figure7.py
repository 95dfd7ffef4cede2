"""Figure 7: suite-average TPC per policy (IDLE, STR, STR(1..3)).

The paper's ordering: STR slightly beats IDLE; STR(i) trails STR because
it squashes correct speculations, with lower *i* more aggressive (but
STR(i) favours inner loops, which matters once data dependences are
considered -- the paper recommends STR(3)).
"""

from repro.analysis import Analysis, register_analysis, \
    shared_simulate_many
from repro.experiments.report import ExperimentResult, TimingMeta

TU_COUNTS = (2, 4, 8, 16)
POLICIES = ("idle", "str", "str(1)", "str(2)", "str(3)")


class Figure7Tables:
    """Accumulates per-workload policy x TU grids into the figure-7
    averages table.

    One fold per workload (:meth:`add_workload`), then
    :meth:`results`.  The direct :class:`Figure7Analysis` and the sweep
    store's query layer (:mod:`repro.sweep.query`) both render through
    this builder, which is what keeps a ``runner query`` report
    byte-identical to the direct ``runner figure7`` output.
    """

    def __init__(self, policies=POLICIES, tu_counts=TU_COUNTS):
        self.policies = tuple(policies)
        self.tu_counts = tuple(tu_counts)
        self._totals = {(policy, tus): 0.0
                        for policy in self.policies
                        for tus in self.tu_counts}
        self._count = 0
        self._timing = TimingMeta()

    def add_workload(self, name, results):
        """Fold one workload; ``results(policy, tus)`` returns that
        configuration's :class:`~repro.core.speculation.metrics.
        SpeculationResult`."""
        for policy in self.policies:
            for tus in self.tu_counts:
                self._totals[(policy, tus)] += self._timing.fold(
                    results(policy, tus)).tpc
        self._count += 1

    def results(self):
        """The :class:`ExperimentResult` averages table."""
        averages = {key: total / self._count
                    for key, total in self._totals.items()}
        rows = []
        for policy in self.policies:
            rows.append((policy.upper(),)
                        + tuple(round(averages[(policy, tus)], 2)
                                for tus in self.tu_counts))
        return ExperimentResult(
            "Figure 7: average TPC per speculation policy",
            ("policy",) + tuple("%d TUs" % t for t in self.tu_counts),
            rows,
            notes=["expected ordering: STR >= IDLE > STR(3) > STR(2) > "
                   "STR(1)"],
            extra={"averages": averages},
            meta=self._timing.as_meta(),
        )


@register_analysis("figure7")
class Figure7Analysis(Analysis):
    def __init__(self, policies=POLICIES, tu_counts=TU_COUNTS):
        self._tables = Figure7Tables(policies, tu_counts)
        self.policies = self._tables.policies
        self.tu_counts = self._tables.tu_counts

    def finish(self, ctx):
        # Whole policy x TU grid in one fused call.
        cells = [(policy, tus) for policy in self.policies
                 for tus in self.tu_counts]
        results = dict(zip(cells, shared_simulate_many(
            ctx, [(tus, policy, None) for policy, tus in cells])))
        self._tables.add_workload(
            ctx.name, lambda policy, tus: results[(policy, tus)])

    def result(self):
        return self._tables.results()


def run(runner):
    from repro.experiments.runner import run_experiment
    return run_experiment("figure7", runner)


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure7"))
