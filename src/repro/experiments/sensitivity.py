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

from repro.analysis import Analysis
from repro.analysis.passes import int_axis, policy_axis, \
    shared_simulate_sims
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


class SensitivityAnalysis(Analysis):
    """Returns a list of two tables: TPC per swept configuration and
    break-even spawn cost per (workload, policy, TU count)."""

    #: No per-workload loop statistics, only :attr:`sims`.
    loopstats = False

    def __init__(self, spawn_costs=SPAWN_COSTS, tu_counts=TU_COUNTS,
                 policies=POLICIES, squash_cost=0, promote_cost=0):
        self.spawn_costs = int_axis("spawn costs", spawn_costs)
        self.tu_counts = int_axis("TU counts", tu_counts, minimum=1)
        self.policies = policy_axis(policies)
        self.squash_cost = squash_cost
        self.promote_cost = promote_cost
        timings = {cost: "overhead:spawn=%d,squash=%d,promote=%d"
                   % (cost, squash_cost, promote_cost)
                   for cost in self.spawn_costs}
        for timing in timings.values():
            make_timing(timing)     # a bad cost fails here, not mid-run
        #: The ``(policy, tus, timing, spawn_cost)`` simulations priced
        #: per workload, one overhead model per spawn cost.
        self.sims = [(policy, tus, timings[cost], cost)
                     for policy in self.policies
                     for tus in self.tu_counts
                     for cost in self.spawn_costs]
        self._tpc_rows = []
        self._breakeven_rows = []
        self._speedups = {}     # (workload, policy, tus) -> [speedup]

    def finish(self, ctx):
        # One fused grid call prices the whole per-workload config
        # group; results arrive in :attr:`sims` order.
        results = iter(shared_simulate_sims(ctx, self.sims))
        for policy in self.policies:
            even_row = [ctx.name, policy.upper()]
            for tus in self.tu_counts:
                tpc_row = [ctx.name, policy.upper(), tus]
                speedups = []
                for _ in self.spawn_costs:
                    result = next(results)
                    tpc_row.append(round(result.tpc, 2))
                    speedups.append(result.speedup_bound)
                self._tpc_rows.append(tuple(tpc_row))
                self._speedups[(ctx.name, policy, tus)] = speedups
                even_row.append(break_even(self.spawn_costs, speedups))
            self._breakeven_rows.append(tuple(even_row))

    def result(self):
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
