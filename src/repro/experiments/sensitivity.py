"""Overhead sensitivity sweep: when does speculation stop paying?

The paper's evaluation assumes free spawns and instantaneous
verification; every follow-on speculative-multithreading study had to
ask what survives once those cost real cycles.  ``sensitivity`` sweeps
spawn cost x TU count x policy over any workload set::

    python -m repro.experiments.runner sensitivity \
        --spawn-cost 0,2,8,32 --tus 2,4,8,16
    python -m repro.experiments.runner sensitivity --profile deep-nest

and reports two tables: per-configuration TPC as spawn cost grows, and
the **break-even spawn cost** per workload -- the fork latency at which
speculation's cycle savings are exactly cancelled by its overheads
(speedup over the non-speculative machine crosses 1.0, linearly
interpolated between swept points).  ``--squash-cost``/``--promote-cost``
add fixed verification-side overheads to every swept model.

When ``--squash-cost`` and ``--promote-cost`` are zero (the default),
the spawn-cost-0 point uses the ideal model (the overhead factory
canonicalizes all-zero costs), so its simulations are shared with
figure6/figure7/table2 when run together and reproduce their numbers
exactly; with fixed verification-side costs the whole sweep -- the
zero point included -- runs under those overheads.
"""

from repro.analysis import Analysis, register_analysis, \
    shared_simulate_many
from repro.experiments.report import ExperimentResult
from repro.timing import make_timing

SPAWN_COSTS = (0, 2, 8, 32)
TU_COUNTS = (2, 4, 8, 16)
POLICIES = ("idle", "str", "str(3)")


def break_even(costs, speedups):
    """The spawn cost at which speedup crosses 1.0.

    *costs* ascend; *speedups* is the measured speedup at each.
    Returns a rounded interpolated cost, ``">N"`` when speculation
    still pays at the largest swept cost, or ``"-"`` when it never pays
    (typically: the workload never speculates).
    """
    eps = 1e-12
    if speedups[0] <= 1.0 + eps:
        return "-"
    for i in range(1, len(costs)):
        if speedups[i] <= 1.0 + eps:
            c0, s0 = costs[i - 1], speedups[i - 1]
            c1, s1 = costs[i], speedups[i]
            if s0 - s1 <= eps:
                return float(c1)
            return round(c0 + (s0 - 1.0) * (c1 - c0) / (s0 - s1), 1)
    return ">%d" % costs[-1]


def _cost_list(name, values):
    values = tuple(values)
    if not values:
        raise ValueError("%s must name at least one value" % name)
    for value in values:
        if not isinstance(value, int) or value < 0:
            raise ValueError("%s values must be integers >= %d, got %r"
                             % (name, 0, value))
    return tuple(sorted(set(values)))


class SensitivityTables:
    """Accumulates swept simulation results into the experiment's two
    report tables.

    One fold per workload (:meth:`add_workload`), then
    :meth:`results`.  The direct :class:`SensitivityAnalysis` and the
    sweep store's query layer (:mod:`repro.sweep.query`) both render
    through this builder, which is what keeps a ``runner query``
    report byte-identical to the direct ``runner sensitivity`` output
    over the same grid.
    """

    def __init__(self, spawn_costs, tu_counts, policies, squash_cost,
                 promote_cost):
        self.spawn_costs = _cost_list("spawn costs", spawn_costs)
        self.tu_counts = _cost_list("TU counts", tu_counts)
        if self.tu_counts[0] < 1:
            raise ValueError("TU counts must be >= 1")
        self.policies = tuple(policies)
        if not self.policies:
            raise ValueError("policies must name at least one policy")
        self.squash_cost = squash_cost
        self.promote_cost = promote_cost
        self._tpc_rows = []
        self._breakeven_rows = []
        self._speedups = {}     # (workload, policy, tus) -> [speedup]

    def add_workload(self, name, results):
        """Fold one workload; ``results(policy, tus, cost)`` returns
        that configuration's :class:`~repro.core.speculation.metrics.
        SpeculationResult` (or any object with ``tpc`` and
        ``speedup_bound``)."""
        for policy in self.policies:
            even_row = [name, policy.upper()]
            for tus in self.tu_counts:
                tpc_row = [name, policy.upper(), tus]
                speedups = []
                for cost in self.spawn_costs:
                    result = results(policy, tus, cost)
                    tpc_row.append(round(result.tpc, 2))
                    speedups.append(result.speedup_bound)
                self._tpc_rows.append(tuple(tpc_row))
                self._speedups[(name, policy, tus)] = speedups
                even_row.append(break_even(self.spawn_costs, speedups))
            self._breakeven_rows.append(tuple(even_row))

    def results(self):
        """The two :class:`ExperimentResult` tables, in render order."""
        overhead_note = ("fixed per-event costs: squash=%d promote=%d"
                         % (self.squash_cost, self.promote_cost))
        if self.squash_cost == self.promote_cost == 0:
            zero_note = ("spawn cost is charged per forked thread; "
                         "spawn=0 is the paper's ideal machine")
        else:
            zero_note = ("spawn cost is charged per forked thread; "
                         "spawn=0 still pays the fixed squash/promote "
                         "costs")
        tpc = ExperimentResult(
            "Sensitivity: TPC vs thread-spawn cost",
            ("workload", "policy", "TUs")
            + tuple("spawn=%d" % c for c in self.spawn_costs),
            self._tpc_rows,
            notes=[zero_note, overhead_note],
            extra={"speedups": dict(self._speedups)},
        )
        even = ExperimentResult(
            "Sensitivity: break-even spawn cost (speedup crosses 1.0)",
            ("workload", "policy")
            + tuple("%d TUs" % t for t in self.tu_counts),
            self._breakeven_rows,
            notes=["'>N': speculation still pays at the largest swept "
                   "cost; '-': the workload never speculates",
                   overhead_note],
        )
        return [tpc, even]


@register_analysis("sensitivity")
class SensitivityAnalysis(Analysis):
    """Returns a list of two tables: TPC per swept configuration and
    break-even spawn cost per (workload, policy, TU count)."""

    def __init__(self, spawn_costs=SPAWN_COSTS, tu_counts=TU_COUNTS,
                 policies=POLICIES, squash_cost=0, promote_cost=0):
        self._tables = SensitivityTables(spawn_costs, tu_counts,
                                         policies, squash_cost,
                                         promote_cost)
        self.spawn_costs = self._tables.spawn_costs
        self.tu_counts = self._tables.tu_counts
        self.policies = self._tables.policies
        self.squash_cost = squash_cost
        self.promote_cost = promote_cost
        # Overhead models are stateless and read-only during
        # simulation, so one instance per cost serves every workload.
        self._models = {
            cost: make_timing("overhead:spawn=%d,squash=%d,promote=%d"
                              % (cost, squash_cost, promote_cost))
            for cost in self.spawn_costs}

    def finish(self, ctx):
        # One fused grid call prices the whole per-workload config
        # group.
        cells = [(policy, tus, cost) for policy in self.policies
                 for tus in self.tu_counts
                 for cost in self.spawn_costs]
        results = dict(zip(cells, shared_simulate_many(
            ctx, [(tus, policy, self._models[cost])
                  for policy, tus, cost in cells])))
        self._tables.add_workload(
            ctx.name, lambda policy, tus, cost: results[(policy, tus,
                                                         cost)])

    def result(self):
        return self._tables.results()


def run(runner, **kwargs):
    """Run the sweep over *runner* (a SimulationSession)."""
    from repro.analysis import AnalysisSuite
    analysis = SensitivityAnalysis(**kwargs)
    runner.analyze(AnalysisSuite([analysis]))
    return analysis.result()


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("sensitivity"))
