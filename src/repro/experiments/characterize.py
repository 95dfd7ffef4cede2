"""Characterization sweep over generated synthetic workloads.

The paper measured loop coverage, nesting/trip profiles, and per-policy
speculation accuracy on a fixed SPEC95 suite; ``characterize`` re-runs
those measurements as *distributions* over many generated programs::

    python -m repro.experiments.runner characterize \
        --profile deep-nest --seed 7 --count 25

sweeps ``synth-deep-nest-7 .. synth-deep-nest-31`` through one replay
each (``session.stats.replays == 25``) and reports, per workload and as
min/p25/median/p75/max/mean distributions: detector coverage, the
Table-1 nesting and trip-count statistics, and speculation hit ratio /
TPC for each policy.  Everything is deterministic — the same sweep
renders byte-identical reports on every run, warm or cold cache.

This module is also the worked example of ``docs/ANALYSIS.md``'s
third-party registration guide: everything happens at ``finish``
against the completed ``ctx.index``, through the per-workload memo
(``shared_loop_statistics`` and ``shared_simulate_sims``, so adding
e.g. table1 or figure6 to the same run re-uses the statistics and
simulations, and a warm run restores them from the derived store).
"""

from repro.analysis import Analysis, register_analysis
from repro.analysis.passes import policy_axis, shared_loop_statistics, \
    shared_simulate_sims
from repro.experiments.report import ExperimentResult, TimingMeta

#: Policies characterized per workload (one simulation each, shared
#: with any other pass requesting the same configuration).
POLICIES = ("idle", "str", "str(3)")

#: Thread units used for every policy run.
NUM_TUS = 4

#: (label, quantile) columns of the distribution table.
_SUMMARY_COLUMNS = ("min", "p25", "median", "p75", "max", "mean")


def _quantile(ordered, q):
    """Linear-interpolation quantile of an ascending list."""
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def summarize(samples):
    """``(min, p25, median, p75, max, mean)`` of *samples*, rounded for
    stable rendering."""
    ordered = sorted(samples)
    if not ordered:
        return (0.0,) * len(_SUMMARY_COLUMNS)
    return (
        round(ordered[0], 3),
        round(_quantile(ordered, 0.25), 3),
        round(_quantile(ordered, 0.50), 3),
        round(_quantile(ordered, 0.75), 3),
        round(ordered[-1], 3),
        round(sum(ordered) / len(ordered), 3),
    )


@register_analysis("characterize")
class CharacterizeAnalysis(Analysis):
    """Per-workload characterization + cross-workload distributions.

    Returns a *list* of two :class:`ExperimentResult` tables: the
    per-workload sweep and the distribution summary.
    """

    #: Reads each workload's loop statistics, besides :attr:`sims`.
    loopstats = True

    def __init__(self, policies=POLICIES, num_tus=NUM_TUS):
        self.policies = policy_axis(policies)
        self.num_tus = num_tus
        #: The ``(policy, tus, timing, spawn_cost)`` simulations priced
        #: per workload (timing ``None``: the session default).
        self.sims = [(policy, num_tus, None, 0)
                     for policy in self.policies]
        self._rows = []
        self._samples = {}      # metric label -> [value per workload]
        self.by_name = {}
        self._timing = TimingMeta()

    def _sample(self, metric, value):
        self._samples.setdefault(metric, []).append(value)

    def finish(self, ctx):
        stats, coverage = shared_loop_statistics(ctx)
        row = [
            ctx.name,
            stats.total_instructions,
            stats.static_loops,
            round(100.0 * coverage, 1),
            round(stats.iterations_per_execution, 2),
            round(stats.instructions_per_iteration, 2),
            round(stats.average_nesting, 2),
            stats.max_nesting,
        ]
        self._sample("coverage %", 100.0 * coverage)
        self._sample("static loops", float(stats.static_loops))
        self._sample("iter/exec", stats.iterations_per_execution)
        self._sample("instr/iter", stats.instructions_per_iteration)
        self._sample("avg nesting", stats.average_nesting)
        self._sample("max nesting", float(stats.max_nesting))
        results = {}
        for policy, result in zip(self.policies,
                                  shared_simulate_sims(ctx, self.sims)):
            results[policy] = self._timing.fold(result)
            row.append(round(100.0 * result.hit_ratio, 1))
            row.append(round(result.tpc, 2))
            self._sample("hit %% [%s]" % policy, 100.0 * result.hit_ratio)
            self._sample("tpc [%s]" % policy, result.tpc)
        self._rows.append(tuple(row))
        self.by_name[ctx.name] = {"stats": stats, "coverage": coverage,
                                  "speculation": results}

    def result(self):
        headers = ["workload", "#instr", "#loops", "cov%", "#iter/exec",
                   "#instr/iter", "avg. nl", "max. nl"]
        for policy in self.policies:
            headers.append("hit%% %s" % policy)
            headers.append("tpc %s" % policy)
        per_workload = ExperimentResult(
            "Characterization sweep (%d TUs)" % self.num_tus,
            headers,
            self._rows,
            notes=["one replay per workload; speculation runs shared "
                   "via ctx.shared"],
            extra={"by_name": self.by_name},
            meta=self._timing.as_meta(),
        )
        summary = ExperimentResult(
            "Characterization distributions over %d workload(s)"
            % len(self._rows),
            ("metric",) + _SUMMARY_COLUMNS,
            [(metric,) + summarize(values)
             for metric, values in self._samples.items()],
            notes=["paper context: SPEC95 spends 57-99% of its time in "
                   "loops; STR(3) with 4 TUs hits 54-100% at TPC "
                   "1.06-3.85"],
            extra={"samples": {k: list(v)
                               for k, v in self._samples.items()}},
        )
        return [per_workload, summary]


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("characterize"))
