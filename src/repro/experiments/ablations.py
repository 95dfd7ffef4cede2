"""Ablations for the design choices the paper discusses in passing.

1. **Replacement policy** (section 2.3.2): LRU vs the nesting-aware
   insertion inhibit.  The paper found the improvement negligible.
2. **TPC accounting**: counting a correct thread's waiting-for-
   confirmation cycles vs only its executing cycles (see the
   modelling notes in docs/ARCHITECTURE.md).
3. **CLS capacity** (section 2.2): how small a CLS starts dropping
   live loops (the paper argues 16 entries never overflow on SPEC95).

All three read the workload's one loaded trace and index: the
replacement sweep replays one table-simulator pair per (size, policy)
over the finished loop index (a walk over the workload's table rows,
where a run of iteration starts is one step; the rows and the LRU
simulators are shared with figure4), and the CLS sweep walks
``ctx.trace`` -- no per-ablation trace load.  There, a capacity the
canonical loop index proves can never overflow (the canonical CLS
never overflowed and no pushed execution is deeper than the capacity)
takes the canonical counts without a walk; every other capacity walks
the trace's batches once with a bare CLS.  Every per-workload count is
persisted in the derived store; when all of a workload's counts are
there, the pass reads no trace for it.
"""

from repro.analysis import Analysis, register_analysis, \
    shared_simulate, shared_table_sim
from repro.core.cls import CurrentLoopStack
from repro.core.events import EndReason
from repro.core.tables import POLICY_LRU, POLICY_NESTING_AWARE
from repro.experiments.report import ExperimentResult, TimingMeta
from repro.obs import collector as obs

REPLACEMENT_SIZES = (2, 4)
REPLACEMENT_POLICIES = (POLICY_LRU, POLICY_NESTING_AWARE)
CLS_CAPACITIES = (2, 4, 8, 16)
WAITING_NUM_TUS = 4


ALL_PARTS = ("replacement", "waiting", "cls")


def _cls_parts(capacity):
    """The derived-store parts of one CLS size's sweep counts."""
    return ("cls-sweep", "cap%d" % capacity)


def _cls_counts(counts):
    """Validate a persisted ``[overflow drops, executions]`` pair."""
    if (not isinstance(counts, list) or len(counts) != 2
            or not all(type(c) is int for c in counts)):
        raise TypeError("CLS-sweep counts must be two ints")
    return counts


@register_analysis("ablations")
class AblationsAnalysis(Analysis):
    def __init__(self, sizes=REPLACEMENT_SIZES,
                 capacities=CLS_CAPACITIES, num_tus=WAITING_NUM_TUS,
                 parts=ALL_PARTS):
        unknown = set(parts) - set(ALL_PARTS)
        if unknown:
            raise ValueError("unknown ablation parts: %s"
                             % ", ".join(sorted(unknown)))
        self.parts = tuple(parts)
        self.sizes = sizes
        self.capacities = capacities
        self.num_tus = num_tus
        # replacement sweep: (size, policy) -> [let_h, let_a, lit_h, lit_a]
        self._replacement = {(size, policy): [0, 0, 0, 0]
                             for size in sizes
                             for policy in REPLACEMENT_POLICIES}
        self._waiting_rows = []
        self._waiting_timing = TimingMeta()
        # CLS sweep: capacity -> [overflow drops, executions]
        self._cls = {capacity: [0, 0] for capacity in capacities}

    def finish(self, ctx):
        if "replacement" in self.parts:
            # Table simulators are shared per configuration across the
            # suite (figure4 sweeps the same LRU sizes).
            for (size, policy), totals in self._replacement.items():
                sim = shared_table_sim(ctx, size, size, policy)
                totals[0] += sim.let_hits
                totals[1] += sim.let_accesses
                totals[2] += sim.lit_hits
                totals[3] += sim.lit_accesses
        if "waiting" in self.parts:
            # One run answers both accountings: with count_waiting=False
            # the engine reports tpc == tpc_executing of the same run.
            incl = self._waiting_timing.fold(
                shared_simulate(ctx, self.num_tus, "str"))
            self._waiting_rows.append((ctx.name, round(incl.tpc, 2),
                                       round(incl.tpc_executing, 2)))
        if "cls" in self.parts:
            for capacity in self.capacities:
                counts = ctx.memo(
                    _cls_parts(capacity), _cls_counts,
                    lambda: self._cls_sweep_counts(ctx, capacity), list)
                totals = self._cls[capacity]
                totals[0] += counts[0]
                totals[1] += counts[1]

    def _cls_sweep_counts(self, ctx, capacity):
        """``[overflow drops, executions]`` of this workload's CLS of
        *capacity* entries.

        A capacity-c CLS behaves exactly like an unbounded one until
        that one pushes depth c + 1, and a canonical CLS that never
        overflowed behaves like an unbounded one throughout.  So when
        the canonical CLS never overflowed and none of its pushed
        executions reached depth c + 1, the counts are the canonical
        ones: no drops, the same executions.  A single iteration
        reports depth ``len(entries) + 1`` but pushes nothing, so only
        pushed executions (``iterations != 1``) count.  Any other
        capacity walks ``ctx.trace`` with a bare stack.

        Every canonical overflow ends exactly one execution, with
        ``EndReason.OVERFLOW``, so the canonical drops are counted in
        the index.
        """
        executions = ctx.index.executions
        overflows = sum(1 for rec in executions.values()
                        if rec.reason is EndReason.OVERFLOW)
        if capacity == ctx.cls_capacity:
            return [overflows, len(executions)]
        if overflows == 0 and all(
                rec.depth <= capacity for rec in executions.values()
                if rec.iterations != 1):
            obs.add("cls.sweep_shortcuts")
            return [0, len(executions)]
        obs.add("cls.sweep_walks")
        stack = CurrentLoopStack(capacity=capacity)
        for batch in ctx.trace.batches:
            stack.process_batch(batch)
        # flush() emits only ExecutionEnds: neither count moves.
        return [stack.overflow_count, stack.next_exec_id]

    # -- the three tables ---------------------------------------------------

    def replacement_result(self):
        rows = []
        for size in self.sizes:
            ratios = {}
            for policy in REPLACEMENT_POLICIES:
                let_h, let_a, lit_h, lit_a = \
                    self._replacement[(size, policy)]
                ratios[policy] = (let_h / let_a if let_a else 0.0,
                                  lit_h / lit_a if lit_a else 0.0)
            lru = ratios[POLICY_LRU]
            aware = ratios[POLICY_NESTING_AWARE]
            rows.append((size, round(100 * lru[0], 2),
                         round(100 * aware[0], 2),
                         round(100 * lru[1], 2),
                         round(100 * aware[1], 2)))
        return ExperimentResult(
            "Ablation: LRU vs nesting-aware replacement",
            ("#entries", "LET lru %", "LET aware %", "LIT lru %",
             "LIT aware %"),
            rows,
            notes=["paper section 2.3.2: improvement is negligible"],
        )

    def waiting_result(self):
        rows = list(self._waiting_rows)
        avg_incl = sum(r[1] for r in rows) / len(rows)
        avg_excl = sum(r[2] for r in rows) / len(rows)
        rows.insert(0, ("AVG", round(avg_incl, 2), round(avg_excl, 2)))
        return ExperimentResult(
            "Ablation: TPC accounting of waiting threads (STR, %d TUs)"
            % self.num_tus,
            ("program", "TPC incl. waiting", "TPC executing only"),
            rows,
            notes=["the model counts waiting cycles (see "
                   "docs/ARCHITECTURE.md); this bounds the effect"],
            meta=self._waiting_timing.as_meta(),
        )

    def cls_capacity_result(self):
        rows = []
        for capacity in self.capacities:
            overflowed, executions = self._cls[capacity]
            rows.append((capacity, overflowed,
                         round(100.0 * overflowed / executions, 3)
                         if executions else 0.0))
        return ExperimentResult(
            "Ablation: CLS capacity vs dropped live loops",
            ("CLS entries", "overflow drops", "% of executions"),
            rows,
            notes=["paper: 16 entries never overflow on SPEC95 (max "
                   "nesting 11)"],
        )

    def result(self):
        tables = {
            "replacement": self.replacement_result,
            "waiting": self.waiting_result,
            "cls": self.cls_capacity_result,
        }
        return [tables[part]() for part in ALL_PARTS
                if part in self.parts]


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("ablations"))
