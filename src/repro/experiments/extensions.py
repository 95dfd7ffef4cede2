"""Extensions the paper describes but does not evaluate.

1. **Speculation disable table** (section 2.3.2): blacklist loops whose
   speculation hit rate is poor.  Measures the hit-ratio gain and the
   TPC effect for STR with 4 TUs.
2. **Synchronization-free thread estimate** (sections 2.3 / 4 and the
   conclusions): threads whose live-in values all predict correctly
   "can proceed in parallel, without any synchronization".  Combines
   the Figure 8 all-data percentages with the Figure 6 TPC to bound the
   thread-level parallelism that survives once inter-thread data
   dependences must be honoured: only the speculative (TPC - 1) share
   scales with the fully-predicted iteration fraction.

The sync-free estimate reuses the same full-trace data-speculation
statistics figure8 computes (shared through ``ctx.shared``), so running
both experiments costs one full trace per workload, not two.
"""

from repro.analysis import Analysis, effective_timing, \
    shared_dataspec_stats, shared_simulate
from repro.core.speculation import SpeculationDisableTable, simulate
from repro.core.speculation.metrics import SpeculationResult
from repro.experiments.figure8 import FULL_TRACE_LIMIT
from repro.experiments.report import ExperimentResult, TimingMeta

#: The disable table's geometry: capacity, samples before a verdict,
#: and the hit rate below which a loop is blocked.
DISABLE_CAPACITY = 16
DISABLE_MIN_SAMPLES = 5
DISABLE_HIT_THRESHOLD = 0.5


def guarded_state(value):
    """The derived-store value of a disable-table run: its result and
    how many loops the table blocked."""
    result, blocked = value
    return {"result": result.state(), "blocked": blocked}


def guarded_from_state(state):
    """``(SpeculationResult, blocked)`` from :func:`guarded_state`."""
    blocked = state["blocked"]
    if type(blocked) is not int:
        raise TypeError("non-integer blocked-loop count")
    return SpeculationResult.from_state(state["result"]), blocked


def guarded_simulate(ctx, num_tus):
    """STR with *num_tus* TUs behind a speculation disable table:
    ``(result, blocked loops)``, restored from the derived store or
    simulated over ``ctx.index`` and persisted."""
    timing = effective_timing(ctx)
    parts = ["simulate-disable", num_tus, "str", DISABLE_CAPACITY,
             DISABLE_MIN_SAMPLES, DISABLE_HIT_THRESHOLD]
    if timing is not None:
        parts.append(timing.key())

    def simulated():
        table = SpeculationDisableTable(capacity=DISABLE_CAPACITY,
                                        min_samples=DISABLE_MIN_SAMPLES,
                                        hit_threshold=DISABLE_HIT_THRESHOLD)
        result = simulate(ctx.index, num_tus=num_tus, policy="str",
                          name=ctx.name, disable_table=table,
                          timing=timing)
        return result, len(table)

    return ctx.memo(parts, guarded_from_state, simulated, guarded_state)


class ExtensionsAnalysis(Analysis):
    def __init__(self, num_tus=4, full_trace_limit=FULL_TRACE_LIMIT):
        self.num_tus = num_tus
        self.full_trace_limit = full_trace_limit
        self._disable_rows = []
        self._sync_rows = []
        # One meta per rendered table: the disable-table study runs a
        # plain and a guarded simulation per workload, the sync-free
        # bound only builds on the plain one.
        self._disable_timing = TimingMeta()
        self._sync_timing = TimingMeta()

    def finish(self, ctx):
        # 1. Disable table.
        plain = self._sync_timing.fold(self._disable_timing.fold(
            shared_simulate(ctx, self.num_tus, "str")))
        guarded, blocked = guarded_simulate(ctx, self.num_tus)
        self._disable_timing.fold(guarded)
        self._disable_rows.append((ctx.name,
                                   round(100 * plain.hit_ratio, 2),
                                   round(100 * guarded.hit_ratio, 2),
                                   round(plain.tpc, 2),
                                   round(guarded.tpc, 2),
                                   blocked))
        # 2. Synchronization-free bound.
        data = shared_dataspec_stats(ctx, self.full_trace_limit)
        sync_free_tpc = 1.0 + (plain.tpc - 1.0) * data.all_data
        self._sync_rows.append((ctx.name, round(plain.tpc, 2),
                                round(100 * data.all_data, 2),
                                round(sync_free_tpc, 2)))

    def disable_table_result(self):
        rows = list(self._disable_rows)
        avg = tuple(round(sum(r[i] for r in rows) / len(rows), 2)
                    for i in range(1, 5))
        rows.insert(0, ("AVG",) + avg + ("",))
        return ExperimentResult(
            "Extension: speculation disable table (STR, %d TUs)"
            % self.num_tus,
            ("program", "hit %", "hit+table %", "TPC", "TPC+table",
             "blocked loops"),
            rows,
            notes=["section 2.3.2's 'loops with a poor prediction rate' "
                   "blacklist; threshold 0.5 over 5 samples",
                   "on these trace lengths most mispredictions resolve "
                   "only at a loop's final execution, so blocks install "
                   "late and barely move the aggregate -- the table "
                   "matters on longer runs"],
            meta=self._disable_timing.as_meta(),
        )

    def sync_free_result(self):
        rows = list(self._sync_rows)
        avg = tuple(round(sum(r[i] for r in rows) / len(rows), 2)
                    for i in range(1, 4))
        rows.insert(0, ("AVG",) + avg)
        return ExperimentResult(
            "Extension: synchronization-free TPC bound (STR, %d TUs)"
            % self.num_tus,
            ("program", "control TPC", "all-data %", "sync-free TPC"),
            rows,
            notes=["lower bound: iterations with any unpredicted live-in "
                   "are charged as fully serialized; real machines "
                   "synchronize per value and land in between"],
            meta=self._sync_timing.as_meta(),
        )

    def result(self):
        return [self.disable_table_result(), self.sync_free_result()]
