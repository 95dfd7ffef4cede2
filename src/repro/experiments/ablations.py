"""Ablations for the design choices the paper discusses in passing.

1. **Replacement policy** (section 2.3.2): LRU vs the nesting-aware
   insertion inhibit.  The paper found the improvement negligible.
2. **TPC accounting**: counting a correct thread's waiting-for-
   confirmation cycles vs only its executing cycles (see the
   modelling notes in docs/ARCHITECTURE.md).
3. **CLS capacity** (section 2.2): how small a CLS starts dropping
   live loops (the paper argues 16 entries never overflow on SPEC95).

All three ride the shared replay: the replacement sweep replays one
table-simulator pair per (size, policy) over the finished loop index
(a columnar walk, shared with figure4), and the CLS sweep feeds one
bare CLS per capacity with each record batch -- no per-ablation trace
re-replays.  Every per-workload count is persisted in the derived
store; when all of a workload's counts are there, the pass wants no
records and the workload needs no replay for it.
"""

from repro.analysis import Analysis, register_analysis, \
    shared_simulate, shared_table_sim
from repro.analysis.passes import derived_memo
from repro.core.cls import CurrentLoopStack
from repro.core.events import ExecutionStart, SingleIteration
from repro.core.tables import POLICY_LRU, POLICY_NESTING_AWARE
from repro.experiments.report import ExperimentResult, TimingMeta

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
        self._stacks = {}
        self._stack_list = ()

    def begin(self, ctx):
        if "cls" in self.parts:
            # The sweep only asks how often each CLS size drops a live
            # loop, so it feeds bare CurrentLoopStacks (no event list,
            # no execution records) and counts execution starts.  The
            # entry matching the session's own capacity is exactly the
            # canonical detector; it is read from the context at
            # finish.  Counts already in the derived store skip their
            # stack's record walk entirely, and with every count there
            # this workload needs no records at all.
            self._stacks = {
                capacity: [CurrentLoopStack(capacity=capacity), 0]
                for capacity in self.capacities
                if capacity != ctx.cls_capacity
                and derived_memo(ctx, _cls_parts(capacity),
                                 _cls_counts) is None}
            self._stack_list = tuple(self._stacks.values())
            self.wants_records = bool(self._stack_list)

    def feed_batch(self, batch):
        # One process_batch call per sweep stack; only execution
        # starts are counted, so event order within the batch is
        # irrelevant.
        for entry in self._stack_list:
            events = entry[0].process_batch(batch)
            if events:
                entry[1] += sum(
                    1 for event in events
                    if type(event) is ExecutionStart
                    or type(event) is SingleIteration)

    def abort(self, ctx):
        self._stacks = {}
        self._stack_list = ()

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
                counts = derived_memo(
                    ctx, _cls_parts(capacity), _cls_counts,
                    lambda: self._cls_sweep_counts(ctx, capacity), list)
                totals = self._cls[capacity]
                totals[0] += counts[0]
                totals[1] += counts[1]
        self._stacks = {}
        self._stack_list = ()

    def _cls_sweep_counts(self, ctx, capacity):
        """``[overflow drops, executions]`` of this workload's CLS of
        *capacity* entries: its sweep stack, or the canonical detector
        for the session's own capacity."""
        entry = self._stacks.get(capacity)
        if entry is not None:
            # flush() emits only ExecutionEnds: neither count moves.
            return [entry[0].overflow_count, entry[1]]
        return [ctx.detector.cls.overflow_count,
                len(ctx.index.executions)]

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


def run(runner):
    from repro.experiments.runner import run_experiment
    return run_experiment("ablations", runner)


# -- single-table conveniences (tests, notebooks) ---------------------------

def _run_one(runner, analysis, picker):
    from repro.analysis import AnalysisSuite
    runner.analyze(AnalysisSuite([analysis]))
    return picker(analysis)


def replacement_policy_ablation(runner, sizes=REPLACEMENT_SIZES):
    return _run_one(runner,
                    AblationsAnalysis(sizes=sizes,
                                      parts=("replacement",)),
                    AblationsAnalysis.replacement_result)


def waiting_accounting_ablation(runner, num_tus=WAITING_NUM_TUS):
    return _run_one(runner,
                    AblationsAnalysis(num_tus=num_tus,
                                      parts=("waiting",)),
                    AblationsAnalysis.waiting_result)


def cls_capacity_ablation(runner, capacities=CLS_CAPACITIES):
    return _run_one(runner,
                    AblationsAnalysis(capacities=capacities,
                                      parts=("cls",)),
                    AblationsAnalysis.cls_capacity_result)


if __name__ == "__main__":
    import sys

    from repro.experiments.runner import experiment_main
    sys.exit(experiment_main("ablations"))
