"""Reusable building-block passes.

These are the generic measurements the experiment modules (and the
example scripts) compose: per-workload loop statistics, speculation
simulations, and the shared full-trace data-speculation study.
"""

from repro.core.events import ExecutionEnd, SingleIteration
from repro.core.loopstats import LoopStatistics, loop_coverage
from repro.core.speculation import simulate, simulate_grid, \
    simulate_infinite
from repro.core.speculation.metrics import SpeculationResult
from repro.core.dataspec import DataSpeculationAnalyzer
from repro.core.dataspec.stats import DataSpecStats
from repro.core.tables import POLICY_LRU, TableHitRatioSimulator
from repro.pipeline.derived import derived_cls_key
from repro.timing import make_timing

from repro.analysis.base import Analysis


def effective_timing(ctx, timing=None):
    """Resolve the timing model a speculation pass should use.

    An explicit *timing* (model instance or spec string) wins;
    otherwise the session-wide default ``ctx.timing`` applies.  Spec
    strings resolve once per workload through ``ctx.shared`` so passes
    naming the same spec share one instance; record-fed specs are
    rejected here -- by the time a pass runs, the record stream has
    gone by, so such models can only be configured session-wide
    (``--timing`` / ``PipelineConfig.timing``), which feeds them
    during the replay.  The ideal model canonicalizes to ``None`` --
    the engine's default -- so explicitly requesting ``"ideal"``
    shares simulations (and memo keys) with passes that never mention
    timing at all.
    """
    if timing is None:
        timing = ctx.timing
    if isinstance(timing, str):
        key = ("timing-model", timing)
        model = ctx.shared.get(key)
        if model is None:
            model = make_timing(timing)
            if model.wants_records:
                raise ValueError(
                    "timing model %r needs the record stream and "
                    "cannot be created inside a pass; configure it "
                    "session-wide (--timing / PipelineConfig.timing) "
                    "so the replay feeds it" % timing)
            ctx.shared[key] = model
        timing = model
    if timing is not None and timing.key() == ("ideal",):
        return None
    return timing


def restore(derived, dkey, from_state):
    """``from_state(value)`` of the derived entry *dkey*, or ``None``
    without a store, on a miss, or when the entry is malformed
    (``from_state`` raising ``KeyError``/``TypeError``/``ValueError``)
    -- a malformed entry is recomputed like a missing one."""
    if derived is None:
        return None
    state = derived.get(dkey)
    if state is None:
        return None
    try:
        return from_state(state)
    except (KeyError, TypeError, ValueError):
        return None


#: Marks, in ``ctx.shared``, a derived entry a lookup found missing.
_MISSING = object()


def derived_memo(ctx, parts, from_state, compute=None, to_state=None):
    """This workload's result named *parts*, at most once per workload.

    Memoized in ``ctx.shared`` under ``tuple(parts)``, so every pass
    asking shares one value (treat it as read-only); the first ask
    restores it from ``ctx.derived`` under :func:`~repro.pipeline.
    derived.derived_cls_key` (``from_state``; malformed entries are
    misses).  On a miss, ``compute()`` makes the value and
    ``to_state(value)`` persists it.  Without *compute* the call is a
    lookup that returns ``None`` on a miss -- what a pass's ``begin``
    uses to decide whether it needs this workload's records -- and a
    later call with *compute* does not read the store again.
    """
    key = tuple(parts)
    value = ctx.shared.get(key)
    if value is None:
        value = restore(ctx.derived,
                        derived_cls_key(ctx.cls_capacity, *parts),
                        from_state)
        value = ctx.shared[key] = _MISSING if value is None else value
    if value is _MISSING and compute is not None:
        value = ctx.shared[key] = compute()
        if ctx.derived is not None:
            ctx.derived.put(derived_cls_key(ctx.cls_capacity, *parts),
                            to_state(value))
    return None if value is _MISSING else value


#: The derived-store parts of a workload's loop statistics and
#: coverage -- also the sweep's loop-statistics cell key, so direct
#: runs and sweep cells share the entry.
LOOPSTATS_PARTS = ("loopstats",)


def loopstats_state(value):
    """The derived-store value of ``(LoopStatistics, coverage)``."""
    stats, coverage = value
    return {"stats": stats.state(), "coverage": coverage}


def loopstats_from_state(state):
    """``(LoopStatistics, coverage)`` from :func:`loopstats_state`."""
    coverage = state["coverage"]
    if not isinstance(coverage, float):
        raise TypeError("non-float loop coverage")
    return LoopStatistics.from_state(state["stats"]), coverage


class LoopStatisticsPass(Analysis):
    """Table-1 statistics, one :class:`LoopStatistics` per workload,
    plus the workload's loop coverage (:attr:`coverage`).

    Every execution record is complete by the time its
    :class:`~repro.core.events.ExecutionEnd` (or
    :class:`~repro.core.events.SingleIteration`) event exists -- the
    CLS guarantees exactly one terminating event per execution, end of
    trace included.  The pass therefore consumes no per-event stream at
    all: at ``finish`` it restores both from the derived store, or
    walks the terminating positions of the index's event columns,
    observing each execution in event order, and persists them.
    """

    def __init__(self):
        self.by_name = {}
        self.coverage = {}
        self._stats = None

    def begin(self, ctx):
        self._stats = LoopStatistics(ctx.name)
        self._stats.total_instructions = ctx.total_instructions

    def abort(self, ctx):
        self._stats = None

    def finish(self, ctx):
        # Shared with every other loop-statistics pass of the suite
        # (table1 and characterize), so a cold workload observes once.
        stats, coverage = derived_memo(
            ctx, LOOPSTATS_PARTS, loopstats_from_state,
            lambda: (self._observe(ctx).finalize(),
                     loop_coverage(ctx.index)),
            loopstats_state)
        self.by_name[ctx.name] = stats
        self.coverage[ctx.name] = coverage
        self._stats = None

    def _observe(self, ctx):
        from repro.core.detector import EV_EXEC_END, EV_SINGLE

        stats = self._stats
        index = ctx.index
        columns = getattr(index, "columns", None)
        if columns is not None:
            cols = columns()
            etypes = cols.etypes
            exec_ids = cols.exec_ids
            executions = index.executions
            observe = stats.observe
            for i in range(len(etypes)):
                etype = etypes[i]
                if etype == EV_EXEC_END or etype == EV_SINGLE:
                    observe(executions[exec_ids[i]])
        else:
            for event in index.events:
                etype = type(event)
                if etype is ExecutionEnd or etype is SingleIteration:
                    stats.observe(ctx.execution(event.exec_id))
        return stats

    def result(self):
        return self.by_name


class SpeculationPass(Analysis):
    """Thread-control speculation per workload.

    The engine is an *oracle*: at spawn time it reads the speculated
    iterations' future boundary sequence numbers from the loop index,
    so it runs in ``finish`` against the completed ``ctx.index`` --
    still one trace replay, with the event list shared by every pass.
    ``num_tus=None`` selects the idealized infinite-TU study.
    """

    def __init__(self, num_tus=4, policy="str", timing=None, **kwargs):
        self.num_tus = num_tus
        self.policy = policy
        self.timing = timing
        self.kwargs = kwargs
        self.by_name = {}

    def finish(self, ctx):
        if self.num_tus is None:
            result = simulate_infinite(
                ctx.index, name=ctx.name,
                timing=effective_timing(ctx, self.timing))
        elif not self.kwargs:
            # Default-configuration cells go through the shared memo,
            # so several SpeculationPass instances in one suite batch
            # with the experiments sweeping the same cells (and share
            # the derived store both ways).
            result = shared_simulate(ctx, self.num_tus, self.policy,
                                     timing=self.timing)
        else:
            result = simulate(ctx.index, num_tus=self.num_tus,
                              policy=self.policy, name=ctx.name,
                              timing=effective_timing(ctx, self.timing),
                              **self.kwargs)
        self.by_name[ctx.name] = result

    def result(self):
        return self.by_name


#: ``ctx.shared`` key prefix for shared LET/LIT hit-ratio simulators.
_TABLE_SIM_KEY = "table-sim"


def shared_table_sim(ctx, let_entries, lit_entries, policy=POLICY_LRU):
    """The :class:`TableHitRatioSimulator` of one table configuration
    for this workload, with its counters valid; call it in ``finish``.

    Several experiments sweep the same table configuration (figure4's
    size-2/4 LRU pairs reappear in the replacement-policy ablation), so
    the simulator is memoized in ``ctx.shared``.  The first call
    restores its counters from the derived store, or replays it once
    over ``ctx.index`` (a columnar walk) and persists them; the rest
    are free.  Consumers only read the counters.
    """
    def replayed():
        sim = TableHitRatioSimulator(let_entries, lit_entries, policy)
        sim.ensure_replayed(ctx.index)
        return sim

    return derived_memo(
        ctx, (_TABLE_SIM_KEY, let_entries, lit_entries, policy),
        lambda counters: TableHitRatioSimulator.from_counters(
            let_entries, lit_entries, policy, counters),
        replayed, TableHitRatioSimulator.counters)


#: ``ctx.shared`` key prefix for memoized speculation simulations.
_SIMULATE_KEY = "simulate"


def shared_simulate(ctx, num_tus, policy, timing=None):
    """A default-configuration speculation simulation, computed at most
    once per replay no matter how many passes ask.

    Several experiments request the exact same deterministic run
    (figure6's STR sweep reappears inside figure7; table2's STR(3) with
    4 TUs too), so the single-pass suite runs each distinct
    ``(num_tus, policy, timing)`` once and shares the result.  *timing*
    (a model instance or spec string; default: the session-wide
    ``ctx.timing``) keys the memo through the model's canonical
    :meth:`~repro.timing.base.TimingModel.key`, with the ideal model
    collapsing onto the timing-free key.  The returned
    :class:`SpeculationResult` is shared — treat it as read-only.
    Non-default configurations (disable tables, bounded LETs,
    ``count_waiting=False``) mutate or change the run; call
    :func:`repro.core.speculation.simulate` directly for those.
    """
    timing = effective_timing(ctx, timing)
    if timing is None:
        key = (_SIMULATE_KEY, num_tus, policy)
    else:
        key = (_SIMULATE_KEY, num_tus, policy, timing.key())
    return derived_memo(
        ctx, key, SpeculationResult.from_state,
        lambda: simulate(ctx.index, num_tus=num_tus, policy=policy,
                         name=ctx.name, timing=timing),
        SpeculationResult.state)


def shared_simulate_many(ctx, specs):
    """Batch form of :func:`shared_simulate`: every ``(num_tus,
    policy, timing)`` in *specs*, resolved through one fused
    :func:`~repro.core.speculation.grid.simulate_grid` call.

    Memo keys, derived-store cell keys, and results are identical to
    calling :func:`shared_simulate` once per spec -- this is purely the
    fast path for experiments that sweep whole per-workload config
    grids (sensitivity, figure6/figure7, table2).  Returns the results
    in spec order; duplicate specs are welcome and share one cell.
    """
    results = []
    missing = []        # (memo key, config) of cells to compute
    pending = {}        # memo key -> slots awaiting the grid result
    for num_tus, policy, timing in specs:
        timing = effective_timing(ctx, timing)
        if timing is None:
            key = (_SIMULATE_KEY, num_tus, policy)
        else:
            key = (_SIMULATE_KEY, num_tus, policy, timing.key())
        result = None if key in pending else \
            derived_memo(ctx, key, SpeculationResult.from_state)
        if result is None:
            if key not in pending:
                missing.append((key, (num_tus, policy, timing)))
                pending[key] = []
            pending[key].append(len(results))
        results.append(result)
    if missing:
        computed = simulate_grid(ctx.index,
                                 [config for _, config in missing],
                                 name=ctx.name)
        if ctx.derived is not None:
            ctx.derived.put_cells(
                (derived_cls_key(ctx.cls_capacity, *key), result.state())
                for (key, _), result in zip(missing, computed))
        for (key, _), result in zip(missing, computed):
            ctx.shared[key] = result
            for slot in pending[key]:
                results[slot] = result
    return results


#: ``ctx.shared`` key prefix for memoized data-speculation statistics.
_DATASPEC_KEY = "dataspec-stats"


def shared_dataspec_stats(ctx, max_instructions):
    """The full-trace data-speculation statistics for this workload,
    computed at most once per replay no matter how many passes ask
    (figure8 and the extensions study share one full-effects stream
    and one analysis).

    The stream is columnar end to end: a
    :class:`~repro.cpu.tracer.ChunkedFullTracer` feeds
    :class:`~repro.trace.batch.FullBatch` columns straight into
    :meth:`~repro.core.dataspec.stats.DataSpeculationAnalyzer.
    analyze_batches`, so the full per-instruction trace is never
    materialized.
    """
    def analyzed():
        from repro.cpu.tracer import ChunkedFullTracer

        tracer = ChunkedFullTracer(ctx.workload.program(ctx.scale),
                                   max_instructions)
        analyzer = DataSpeculationAnalyzer(cls_capacity=ctx.cls_capacity)
        return analyzer.analyze_batches(tracer.batches(), ctx.name)

    return derived_memo(ctx, (_DATASPEC_KEY, max_instructions),
                        DataSpecStats.from_state, analyzed,
                        DataSpecStats.state)


class DataSpecPass(Analysis):
    """Per-workload section-4 data-speculation statistics (full trace,
    bounded to *max_instructions*), shared through ``ctx.shared``."""

    def __init__(self, max_instructions):
        self.max_instructions = max_instructions
        self.by_name = {}

    def finish(self, ctx):
        self.by_name[ctx.name] = shared_dataspec_stats(
            ctx, self.max_instructions)

    def result(self):
        return self.by_name
