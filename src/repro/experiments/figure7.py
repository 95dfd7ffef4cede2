"""Figure 7: suite-average TPC per policy (IDLE, STR, STR(1..3)).

The paper's ordering: STR slightly beats IDLE; STR(i) trails STR because
it squashes correct speculations, with lower *i* more aggressive (but
STR(i) favours inner loops, which matters once data dependences are
considered -- the paper recommends STR(3)).
"""

from repro.analysis import Analysis
from repro.analysis.passes import int_axis, policy_axis, \
    shared_simulate_sims
from repro.experiments.report import ExperimentResult, TimingMeta

TU_COUNTS = (2, 4, 8, 16)
POLICIES = ("idle", "str", "str(1)", "str(2)", "str(3)")


class Figure7Analysis(Analysis):
    #: No per-workload loop statistics, only :attr:`sims`.
    loopstats = False

    def __init__(self, policies=POLICIES, tu_counts=TU_COUNTS):
        self.policies = policy_axis(policies)
        self.tu_counts = int_axis("TU counts", tu_counts, minimum=1)
        #: The ``(policy, tus, timing, spawn_cost)`` simulations priced
        #: per workload (timing ``None``: the session default).
        self.sims = [(policy, tus, None, 0) for policy in self.policies
                     for tus in self.tu_counts]
        self._totals = {(policy, tus): 0.0
                        for policy, tus, _, _ in self.sims}
        self._count = 0
        self._timing = TimingMeta()

    def finish(self, ctx):
        # Whole policy x TU grid in one fused call.
        for (policy, tus, _, _), result in zip(
                self.sims, shared_simulate_sims(ctx, self.sims)):
            self._totals[(policy, tus)] += self._timing.fold(result).tpc
        self._count += 1

    def result(self):
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
