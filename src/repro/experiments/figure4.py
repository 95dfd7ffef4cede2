"""Figure 4: LET and LIT hit ratios vs table size.

The paper sweeps 2/4/8/16 entries with LRU replacement and the
two-completions-since-insertion hit criterion, averaging over SPEC95.
It highlights 4 LIT entries (90.50%) and 16 LET entries (91.98%) as the
suggested trade-off.

Every table size rides the *same* replay: one
:class:`~repro.core.tables.TableHitRatioSimulator` pair per size walks
the finished loop index at ``finish`` (or restores its counters from
the derived store), so sweeping sizes costs no extra trace passes.
"""

from repro.analysis import Analysis, register_analysis, shared_table_sim
from repro.experiments.report import ExperimentResult

TABLE_SIZES = (16, 8, 4, 2)


@register_analysis("figure4")
class Figure4Analysis(Analysis):
    def __init__(self, table_sizes=TABLE_SIZES):
        self.table_sizes = table_sizes
        self._totals = {size: [0, 0, 0, 0] for size in table_sizes}
        self._per_bench = {size: {} for size in table_sizes}

    def finish(self, ctx):
        # Simulators are shared per (size, size, LRU) across the suite
        # (the replacement ablation sweeps the same configurations) and
        # restored from the derived store when present; otherwise each
        # replays the finished index once, for its first consumer.
        for size in self.table_sizes:
            sim = shared_table_sim(ctx, size, size)
            totals = self._totals[size]
            totals[0] += sim.let_hits
            totals[1] += sim.let_accesses
            totals[2] += sim.lit_hits
            totals[3] += sim.lit_accesses
            self._per_bench[size][ctx.name] = (sim.let_hit_ratio,
                                               sim.lit_hit_ratio)

    def result(self):
        per_size = {}
        for size in self.table_sizes:
            let_hits, let_accs, lit_hits, lit_accs = self._totals[size]
            per_size[size] = {
                "let": let_hits / let_accs if let_accs else 0.0,
                "lit": lit_hits / lit_accs if lit_accs else 0.0,
                "per_bench": self._per_bench[size],
            }
        rows = [(size,
                 round(100.0 * per_size[size]["let"], 2),
                 round(100.0 * per_size[size]["lit"], 2))
                for size in self.table_sizes]
        return ExperimentResult(
            "Figure 4: LET and LIT hit ratios (suite average)",
            ("#entries", "LET hit %", "LIT hit %"),
            rows,
            notes=["paper trade-off points: 4-entry LIT ~90.5%, 16-entry "
                   "LET ~92.0%"],
            extra={"per_size": per_size},
        )


def run(runner):
    from repro.experiments.runner import run_experiment
    return run_experiment("figure4", runner)


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("figure4"))
