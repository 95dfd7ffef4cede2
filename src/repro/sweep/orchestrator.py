"""The sweep orchestrator: shard, execute, checkpoint, resume.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec` into
content-keyed cells, asks the store which are already done, and shards
only the missing ones across a process pool -- grouped by workload, so
each worker performs one index build per workload (served from the
trace cache when warm) however many cells that workload contributes.
Completed groups are checkpointed into the store *as they stream in*
(one committed transaction each), which is the whole resume story:

* interrupt mid-sweep, rerun the same spec, and only the cells missing
  from the store execute (a completed sweep reruns as 0 cells);
* a cell that raises is recorded as a ``failed`` row -- with the error
  message -- and the sweep carries on; failed rows are retried on the
  next submission;
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

    def __repr__(self):
        return ("SweepRunStats(%s: planned=%d, skipped=%d, "
                "executed=%d, failed=%d)"
                % (self.sweep_id, self.planned, self.skipped,
                   self.executed, self.failed))


def cell_descriptor(cell):
    """The picklable ``(key, kind, timing, policy, tus)`` tuple a
    worker needs to execute one cell (:func:`run_workload_cells`)."""
    return (cell.key, cell.kind, cell.timing, cell.policy, cell.tus)


def base_row(cell):
    """The store columns a cell fixes before it runs; a worker's
    result row completes them."""
    return {
        "cell_key": cell.key, "trace_key": cell.trace_key,
        "workload": cell.workload, "scale": cell.scale,
        "max_instructions": cell.max_instructions,
        "cls_capacity": cell.cls_capacity, "kind": cell.kind,
        "timing": cell.timing, "policy": cell.policy, "tus": cell.tus,
    }


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
    so derived-store hits cost no index build.
    """

    def __init__(self, descriptors):
        self.descriptors = descriptors
        self.outcomes = {}

    def finish(self, ctx):
        from repro.analysis.passes import shared_loop_statistics, \
            shared_simulate_many

        outcomes = self.outcomes

        def simulated(cells):
            return shared_simulate_many(
                ctx, [(tus, policy, timing)
                      for _, _, timing, policy, tus in cells])

        sims = [cell for cell in self.descriptors if cell[1] == KIND_SIM]
        try:
            outcomes.update(zip([cell[0] for cell in sims],
                                simulated(sims)))
        except Exception:
            # An index build that raises fails the whole workload (the
            # caller records that); anything else is retried one cell
            # at a time, so only a bad cell fails.
            ctx.index
            for cell in sims:
                outcomes[cell[0]] = _attempt(
                    lambda: simulated([cell])[0])
        for key, kind, _, _, _ in self.descriptors:
            if kind == KIND_LOOPSTATS:
                outcomes[key] = _attempt(
                    lambda: shared_loop_statistics(ctx))
            elif kind != KIND_SIM:
                outcomes[key] = ValueError("unknown cell kind %r" % kind)

    def result(self):
        return self.outcomes


def run_workload_cells(name, scale, max_instructions, cls_capacity,
                       cache_dir, descriptors):
    """Execute every cell of one workload; returns result row dicts.

    Module-level so the process pool can pickle it.  The cells are one
    pass of a single-workload :meth:`~repro.pipeline.session.
    SimulationSession.analyze`: each is restored from the derived store
    (when *cache_dir* is set), and only if some cell misses is the loop
    index built, once, with the missing simulations priced in one fused
    :func:`~repro.core.speculation.grid.simulate_grid` call and
    persisted.  A cell that raises becomes a ``failed`` row; an index
    build that raises fails every cell of the workload (the caller
    records that).
    """
    from repro.analysis import AnalysisSuite
    from repro.analysis.passes import loopstats_state
    from repro.pipeline import PipelineConfig, SimulationSession

    cells = _CellsPass(descriptors)
    SimulationSession(PipelineConfig(
        workloads=(name,), scale=scale,
        max_instructions=max_instructions, cls_capacity=cls_capacity,
        cache_dir=cache_dir)).analyze(AnalysisSuite([cells]))
    rows = []
    for key, kind, _, _, _ in descriptors:
        row = {"cell_key": key, "status": "done", "error": None,
               "tpc": None, "hit_ratio": None, "speedup": None,
               "overhead_cycles": None, "detail": None}
        value = cells.outcomes[key]
        if isinstance(value, Exception):
            row["status"] = "failed"
            row["error"] = "%s: %s" % (type(value).__name__, value)
        elif kind == KIND_SIM:
            row.update(
                tpc=value.tpc, hit_ratio=value.hit_ratio,
                speedup=value.speedup_bound,
                overhead_cycles=value.overhead_cycles,
                detail=json.dumps(value.state(), sort_keys=True))
        else:
            row["detail"] = json.dumps(loopstats_state(value),
                                       sort_keys=True)
        rows.append(row)
    return name, rows


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
    each store commit a ``sweep.checkpoint`` child span, and the run's
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
    order = []
    for cell in missing:
        if cell.workload not in groups:
            groups[cell.workload] = []
            order.append(cell.workload)
        groups[cell.workload].append(cell)
    by_cell = {c.key: c for c in missing}

    def commit(name, rows):
        with obs.span("sweep.checkpoint", workload=name, rows=len(rows)):
            store.put_cells(rows)
        stats.checkpoints += 1
        if progress is not None:
            progress(name, stats.executed + stats.failed, len(missing))

    def absorb(name, result_rows):
        rows = []
        for partial in result_rows:
            row = base_row(by_cell[partial["cell_key"]])
            row.update(partial)
            rows.append(row)
            if partial["status"] == "failed":
                stats.failed += 1
            else:
                stats.executed += 1
        commit(name, rows)

    def task_args(name):
        return (name, spec.scale, spec.max_instructions,
                spec.cls_capacity, cache_dir,
                [cell_descriptor(c) for c in groups[name]])

    def fail_group(name, exc):
        rows = []
        for cell in groups[name]:
            row = base_row(cell)
            row.update(status="failed", tpc=None, hit_ratio=None,
                       speedup=None, overhead_cycles=None, detail=None,
                       error="%s: %s" % (type(exc).__name__, exc))
            rows.append(row)
            stats.failed += 1
        commit(name, rows)

    if jobs <= 1 or len(order) <= 1:
        for name in order:
            try:
                _, rows = run_workload_cells(*task_args(name))
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                # Index build (or another per-workload stage) died:
                # record every cell of the group as failed.
                fail_group(name, exc)
            else:
                absorb(name, rows)
        return stats

    with ProcessPoolExecutor(max_workers=min(jobs, len(order))) as pool:
        futures = {pool.submit(run_workload_cells, *task_args(name)):
                   name for name in order}
        pending = set(futures)
        try:
            while pending:
                finished, pending = wait(pending,
                                         return_when=FIRST_COMPLETED)
                for future in finished:
                    name = futures[future]
                    try:
                        _, rows = future.result()
                    except Exception as exc:
                        fail_group(name, exc)
                    else:
                        absorb(name, rows)
        except KeyboardInterrupt:
            # Flush whatever already finished, then propagate; the
            # CLI turns this into exit code 130.
            for future in pending:
                future.cancel()
            for future in [f for f in pending if f.done()
                           and not f.cancelled()]:
                name = futures[future]
                try:
                    _, rows = future.result()
                except Exception:
                    continue
                absorb(name, rows)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return stats
