"""Reusable building-block passes.

These are the generic measurements the experiment modules (and the
example scripts) compose: per-workload loop statistics, speculation
simulations, and the shared full-trace data-speculation study.
"""

from repro.core.loopstats import LoopStatistics, \
    compute_loop_statistics, loop_coverage
from repro.core.speculation import make_policy, simulate_grid, \
    simulate_infinite
from repro.core.speculation.metrics import SpeculationResult
from repro.core.dataspec import DataSpeculationAnalyzer
from repro.core.dataspec.stats import DataSpecStats
from repro.core.tables import POLICY_LRU, TableHitRatioSimulator
from repro.obs import collector as obs
from repro.pipeline.derived import derived_key
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
    the engine's default, and the timing-free memo parts of
    :func:`simulate_parts`.
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


#: Marks, in ``ctx.shared``, a derived entry a lookup found missing.
_MISSING = object()


def memo_key(cls_capacity, parts):
    """The derived-store key of the per-workload result named *parts*
    under a CLS of *cls_capacity* entries (every analysis result is):
    the parts, then ``/c<cls_capacity>``.  It is also the suffix a
    sweep cell's key joins under its workload's trace key, so sweep
    cells, search candidates and direct runs share one stored entry."""
    return derived_key(*parts) + "/c%d" % cls_capacity


def derived_memo(ctx, parts, from_state, compute=None, to_state=None):
    """This workload's result named *parts*, at most once per workload.

    Memoized in ``ctx.shared`` under ``tuple(parts)``, so every pass
    asking shares one value (treat it as read-only); the first ask
    restores it from ``ctx.derived`` under :func:`memo_key`
    (``from_state``).  An entry ``from_state`` rejects (raising
    ``KeyError``/``TypeError``/``ValueError``) is corrupt and is
    recomputed like a missing one.  Each store lookup counts once as
    ``derived.hits``, ``derived.misses`` or ``derived.corrupt``.  On a
    miss, ``compute()`` makes the value and ``to_state(value)``
    persists it.  Without *compute* the call is a lookup that returns
    ``None`` on a miss -- what a pass's ``begin`` uses to decide
    whether it needs this workload's records -- and a later call with
    *compute* does not read the store again.
    """
    key = tuple(parts)
    value = ctx.shared.get(key)
    if value is None:
        value = _MISSING
        if ctx.derived is not None:
            state = ctx.derived.get(memo_key(ctx.cls_capacity, key))
            if state is None:
                obs.add("derived.misses")
            else:
                try:
                    value = from_state(state)
                except (KeyError, TypeError, ValueError):
                    obs.add("derived.corrupt")
                else:
                    obs.add("derived.hits")
        ctx.shared[key] = value
    if value is _MISSING and compute is not None:
        value = ctx.shared[key] = compute()
        if ctx.derived is not None:
            ctx.derived.put(memo_key(ctx.cls_capacity, key),
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


def shared_loop_statistics(ctx):
    """This workload's ``(LoopStatistics, coverage)``, restored from the
    derived store or computed over ``ctx.index`` and persisted; shared
    by every loop-statistics consumer (table1, characterize, sweep and
    search cells), so a cold workload computes them once."""
    return derived_memo(
        ctx, LOOPSTATS_PARTS, loopstats_from_state,
        lambda: (compute_loop_statistics(ctx.index, ctx.name),
                 loop_coverage(ctx.index)),
        loopstats_state)


class LoopStatisticsPass(Analysis):
    """Table-1 statistics, one :class:`LoopStatistics` per workload,
    plus the workload's loop coverage (:attr:`coverage`).

    Both are functions of the completed loop index alone, so the pass
    consumes no per-event stream at all: ``finish`` takes them from
    :func:`shared_loop_statistics`.
    """

    def __init__(self):
        self.by_name = {}
        self.coverage = {}

    def finish(self, ctx):
        stats, coverage = shared_loop_statistics(ctx)
        self.by_name[ctx.name] = stats
        self.coverage[ctx.name] = coverage

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

    def __init__(self, num_tus=4, policy="str", timing=None):
        self.num_tus = num_tus
        self.policy = policy
        self.timing = timing
        self.by_name = {}

    def finish(self, ctx):
        if self.num_tus is None:
            result = simulate_infinite(
                ctx.index, name=ctx.name,
                timing=effective_timing(ctx, self.timing))
        else:
            # Cells go through the shared memo, so several
            # SpeculationPass instances in one suite batch with the
            # experiments sweeping the same cells (and share the
            # derived store both ways).
            result = shared_simulate(ctx, self.num_tus, self.policy,
                                     timing=self.timing)
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


def simulate_parts(num_tus, policy, timing=None):
    """The memo parts of the default-configuration simulation of
    ``(num_tus, policy)`` under *timing* (a model; ``None`` is the
    ideal machine).  Timing enters through the model's canonical
    :meth:`~repro.timing.base.TimingModel.key`, and the ideal model
    collapses onto the timing-free parts, so an explicit ``"ideal"``
    (or an all-zero overhead model) shares its entry with runs that
    never mention timing."""
    if timing is None or timing.key() == ("ideal",):
        return (_SIMULATE_KEY, num_tus, policy)
    return (_SIMULATE_KEY, num_tus, policy, timing.key())


def shared_simulate(ctx, num_tus, policy, timing=None):
    """One default-configuration speculation simulation:
    ``shared_simulate_many(ctx, [(num_tus, policy, timing)])[0]``."""
    return shared_simulate_many(ctx, [(num_tus, policy, timing)])[0]


def shared_simulate_many(ctx, specs):
    """The default-configuration speculation simulation of every
    ``(num_tus, policy, timing)`` in *specs*, each computed at most
    once per workload no matter how many passes ask.

    Several experiments request the exact same deterministic run
    (figure6's STR sweep reappears inside figure7; table2's STR(3)
    with 4 TUs too), so each distinct cell is memoized in
    ``ctx.shared`` and the derived store under :func:`simulate_parts`;
    *timing* (a model instance or spec string; ``None``: the
    session-wide ``ctx.timing``) resolves through
    :func:`effective_timing`.  The cells no memo holds are priced in
    one fused :func:`~repro.core.speculation.grid.simulate_grid` call
    and persisted together.  Returns the shared
    :class:`SpeculationResult` objects in spec order (treat them as
    read-only); duplicate specs share one cell.  Non-default
    configurations (disable tables, ``count_waiting=False``) mutate or
    change the run; call :func:`repro.core.speculation.simulate`
    directly for those.
    """
    results = []
    missing = []        # (memo parts, config) of cells to compute
    pending = {}        # memo parts -> slots awaiting the grid result
    for num_tus, policy, timing in specs:
        timing = effective_timing(ctx, timing)
        key = simulate_parts(num_tus, policy, timing)
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
                (memo_key(ctx.cls_capacity, key), result.state())
                for (key, _), result in zip(missing, computed))
        for (key, _), result in zip(missing, computed):
            ctx.shared[key] = result
            for slot in pending[key]:
                results[slot] = result
    return results


def shared_simulate_sims(ctx, sims):
    """The results of a swept analysis's ``sims`` -- its ``(policy,
    tus, timing, spawn_cost)`` list, the shape a sweep plans cells
    from -- in list order, through one :func:`shared_simulate_many`
    call (*timing* ``None``: the session-wide ``ctx.timing``)."""
    return shared_simulate_many(
        ctx, [(tus, policy, timing) for policy, tus, timing, _ in sims])


def int_axis(name, values, minimum=0):
    """Sorted, de-duplicated integer axis: a swept experiment and its
    sweep spec normalize the same way, so grids match cell for cell."""
    values = tuple(values)
    if not values:
        raise ValueError("%s must name at least one value" % name)
    for value in values:
        if not isinstance(value, int) or value < minimum:
            raise ValueError("%s values must be integers >= %d, got %r"
                             % (name, minimum, value))
    return tuple(sorted(set(values)))


def policy_axis(policies):
    """Policy names in first-seen order, a repeated name folded once;
    raises :class:`ValueError` on an empty list or an unknown policy."""
    policies = tuple(dict.fromkeys(policies))
    if not policies:
        raise ValueError("policies must name at least one policy")
    for policy in policies:
        make_policy(policy)
    return policies


#: ``ctx.shared`` key prefix for memoized data-speculation statistics.
_DATASPEC_KEY = "dataspec-stats"


def shared_dataspec_stats(ctx, max_instructions):
    """The full-trace data-speculation statistics for this workload,
    computed at most once per replay no matter how many passes ask
    (figure8 and the extensions study share one study stream and one
    analysis).

    A :class:`~repro.cpu.tracer.ChunkedFullTracer` feeds
    :class:`~repro.trace.batch.StudyBatch` block rows straight into
    :meth:`~repro.core.dataspec.stats.DataSpeculationAnalyzer.
    analyze_batches`, so no per-instruction trace is ever
    materialized.  A computed study runs in a ``dataspec`` span and
    adds its instructions and loop iterations to the
    ``dataspec.instructions``/``dataspec.iterations`` counters, beside
    the analyzer's ``dataspec.blocks``/``dataspec.exposed_reads``/
    ``dataspec.memory_ops``.
    """
    def analyzed():
        from repro.cpu.tracer import ChunkedFullTracer

        with obs.span("dataspec", workload=ctx.name):
            tracer = ChunkedFullTracer(ctx.workload.program(ctx.scale),
                                       max_instructions)
            analyzer = DataSpeculationAnalyzer(
                cls_capacity=ctx.cls_capacity)
            stats = analyzer.analyze_batches(tracer.batches(), ctx.name)
        obs.add("dataspec.instructions", tracer.total_instructions)
        obs.add("dataspec.iterations", stats.total_iterations)
        return stats

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
