"""The sweep orchestrator: shard, execute, checkpoint, resume.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
content-keyed cells, asks the store which are already done, and shards
only the missing ones across a process pool -- grouped by workload, so
each worker performs one index build per workload (served from the
trace cache when warm) however many cells that workload contributes.
A worker (:func:`run_workload_cells`) returns each cell's finished
store row, and completed groups are checkpointed into the store
unchanged *as they stream in* (one committed transaction each), which
is the whole resume story:

* interrupt mid-sweep, rerun the same spec, and only the cells missing
  from the store execute (a completed sweep reruns as 0 cells);
* a cell that raises is recorded as a ``failed`` row -- with the error
  message -- and the sweep carries on; so is every cell of a workload
  whose tracing or index build raises, or whose pool task died.
  Failed rows are retried on the next submission;
* ``KeyboardInterrupt`` drains any already-finished worker results
  into the store before propagating, so Ctrl-C loses at most the
  groups still executing.

Workers price their cells through the same per-workload memo as the
direct experiments (:meth:`~repro.analysis.base.WorkloadContext.memo`,
under the cell's own derived-store key), so a sweep following a
``runner sensitivity`` run -- or vice versa -- recomputes nothing.
"""

import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    wait

from repro.analysis.base import Analysis
from repro.obs import collector as obs
from repro.sweep.spec import KIND_LOOPSTATS, KIND_SIM, expand_cells
from repro.sweep.store import CELL_FIELDS


class SweepRunStats:
    """What one :func:`run_sweep` call actually did."""

    __slots__ = ("sweep_id", "planned", "skipped", "executed", "failed",
                 "checkpoints")

    def __init__(self, sweep_id, planned, skipped):
        self.sweep_id = sweep_id
        self.planned = planned      #: cells the grid names
        self.skipped = skipped      #: already stored as done
        self.executed = 0           #: computed (and stored) this run
        self.failed = 0             #: stored as failed rows this run
        self.checkpoints = 0        #: store commits performed


def _row(cell, status="done", **metrics):
    """*cell*'s store row, a :data:`~repro.sweep.store.CELL_FIELDS`
    dict; a cell's coordinates share the column names."""
    row = {field: getattr(cell, field, None) for field in CELL_FIELDS}
    row.update(metrics, cell_key=cell.key, status=status)
    return row


def _failed_row(cell, exc):
    """*cell*'s ``failed`` row, naming the exception *exc*."""
    return _row(cell, "failed",
                error="%s: %s" % (type(exc).__name__, exc))


def _attempt(compute):
    """``compute()``, or the exception it raised."""
    try:
        return compute()
    except Exception as exc:
        return exc


class _CellsPass(Analysis):
    """Prices one workload's cells in ``finish``.

    :attr:`outcomes` maps each cell key to its value -- a
    :class:`~repro.core.speculation.metrics.SpeculationResult`, or the
    ``(LoopStatistics, coverage)`` pair -- or to the exception
    computing it raised.  Every value comes from the per-workload memo,
    so derived-store hits cost no index build.  An index build that
    raises propagates, failing every cell of the workload.
    """

    def __init__(self, cells):
        self.cells = cells
        self.outcomes = {}

    def finish(self, ctx):
        from repro.analysis.passes import shared_loop_statistics, \
            shared_simulate_many

        outcomes = self.outcomes

        def simulated(cells):
            return shared_simulate_many(
                ctx, [(cell.tus, cell.policy, cell.timing)
                      for cell in cells])

        sims = [cell for cell in self.cells if cell.kind == KIND_SIM]
        try:
            outcomes.update(zip([cell.key for cell in sims],
                                simulated(sims)))
        except Exception:
            # An index build that raises fails the whole workload;
            # anything else is retried one cell at a time, so only a
            # bad cell fails.
            ctx.index
            for cell in sims:
                outcomes[cell.key] = _attempt(
                    lambda: simulated([cell])[0])
        for cell in self.cells:
            if cell.kind == KIND_LOOPSTATS:
                outcomes[cell.key] = _attempt(
                    lambda: shared_loop_statistics(ctx))
            elif cell.kind != KIND_SIM:
                outcomes[cell.key] = ValueError(
                    "unknown cell kind %r" % cell.kind)

    def result(self):
        return self.outcomes


def run_workload_cells(cells, cache_dir):
    """Execute *cells*, all of one workload; returns their store rows.

    Module-level so the process pool can pickle it.  The session
    coordinates come from the cells, and the cells are one pass of a
    single-workload :meth:`~repro.pipeline.session.SimulationSession.
    analyze`: each is restored from the derived store (when
    *cache_dir* is set), and only if some cell misses is the loop
    index built, once, with the missing simulations priced in one
    fused :func:`~repro.core.speculation.grid.simulate_grid` call and
    persisted.  Every cell gets one complete
    :data:`~repro.sweep.store.CELL_FIELDS` row, in *cells* order: a
    cell that raises gets a ``failed`` row, and so does every cell
    when a per-workload stage (tracing, the index build) raises.
    """
    from repro.analysis import AnalysisSuite
    from repro.analysis.passes import loopstats_state
    from repro.pipeline import PipelineConfig, SimulationSession

    first = cells[0]
    priced = _CellsPass(cells)
    try:
        SimulationSession(PipelineConfig(
            workloads=(first.workload,), scale=first.scale,
            max_instructions=first.max_instructions,
            cls_capacity=first.cls_capacity,
            cache_dir=cache_dir)).analyze(AnalysisSuite([priced]))
    except Exception as exc:
        return [_failed_row(cell, exc) for cell in cells]
    rows = []
    for cell in cells:
        value = priced.outcomes[cell.key]
        if isinstance(value, Exception):
            rows.append(_failed_row(cell, value))
        elif cell.kind == KIND_SIM:
            rows.append(_row(
                cell, tpc=value.tpc, hit_ratio=value.hit_ratio,
                speedup=value.speedup_bound,
                overhead_cycles=value.overhead_cycles,
                detail=json.dumps(value.state(), sort_keys=True)))
        else:
            rows.append(_row(cell, detail=json.dumps(
                loopstats_state(value), sort_keys=True)))
    return rows


def run_sweep(spec, store, jobs=1, cache_dir=None, progress=None,
              dry_run=False):
    """Execute *spec* into *store*; returns :class:`SweepRunStats`.

    *progress*, when given, is called as ``progress(workload,
    executed_so_far, total_missing)`` after each checkpoint commit --
    the fault-injection seam the resume tests use, and the CLI's
    progress line.  *dry_run* plans and registers the sweep but
    executes nothing.

    Each workload group commits as one transaction once all its cells
    are priced (they are priced together, in one session pass), so an
    interrupt loses at most the groups still in flight.

    With an obs collector active the whole run is a ``sweep`` span,
    each store commit a ``sweep.checkpoint`` child span -- holding, in
    a pooled run, the events of the task whose rows it commits
    (:func:`~repro.obs.collector.in_worker`) -- and the run's
    plan/skip/execute/fail/checkpoint tallies land in the
    ``sweep.cells_*`` / ``sweep.checkpoints`` counters.
    """
    with obs.span("sweep", experiment=spec.experiment, jobs=jobs):
        stats = _run_sweep(spec, store, jobs, cache_dir, progress,
                           dry_run)
    collector = obs.active()
    if collector is not None:
        collector.add("sweep.cells_planned", stats.planned)
        collector.add("sweep.cells_resumed", stats.skipped)
        collector.add("sweep.cells_executed", stats.executed)
        collector.add("sweep.cells_failed", stats.failed)
        collector.add("sweep.checkpoints", stats.checkpoints)
    return stats


def _run_sweep(spec, store, jobs, cache_dir, progress, dry_run):
    cells = expand_cells(spec)
    sweep_id = store.record_sweep(spec, [c.key for c in cells])
    done = store.done_keys([c.key for c in cells])
    missing = [c for c in cells if c.key not in done]
    stats = SweepRunStats(sweep_id, len(cells), len(cells) - len(missing))
    if dry_run or not missing:
        return stats

    # Shard by workload: one task per workload keeps the expensive part
    # (index build) amortized across that workload's whole cell set.
    groups = {}
    for cell in missing:
        groups.setdefault(cell.workload, []).append(cell)

    def commit(name, rows, events=None):
        with obs.span("sweep.checkpoint", workload=name, rows=len(rows)):
            if events:
                obs.active().absorb(events, workload=name)
            store.put_cells(rows)
        failed = sum(row["status"] != "done" for row in rows)
        stats.failed += failed
        stats.executed += len(rows) - failed
        stats.checkpoints += 1
        if progress is not None:
            progress(name, stats.executed + stats.failed, len(missing))

    if jobs <= 1 or len(groups) <= 1:
        for name, group in groups.items():
            commit(name, run_workload_cells(group, cache_dir))
        return stats

    observe = obs.active() is not None
    with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
        futures = {pool.submit(obs.in_worker, observe, run_workload_cells,
                               group, cache_dir): name
                   for name, group in groups.items()}
        pending = set(futures)
        try:
            while pending:
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    name = futures[future]
                    try:
                        rows, events = future.result()
                    except Exception as exc:
                        # The task itself died (a broken pool).
                        rows, events = [_failed_row(cell, exc)
                                        for cell in groups[name]], None
                    commit(name, rows, events)
        except KeyboardInterrupt:
            # Flush whatever already finished, then propagate; the
            # CLI turns this into exit code 130.
            for future in pending:
                future.cancel()
            for future in pending:
                if future.done() and not future.cancelled() \
                        and future.exception() is None:
                    commit(futures[future], *future.result())
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return stats
