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

Workers reuse the derived-results store under the same keys as the
direct experiments (:func:`~repro.analysis.passes.shared_simulate`),
so a sweep following a ``runner sensitivity`` run -- or vice versa --
recomputes nothing.
"""

import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    wait

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


def _cell_descriptor(cell):
    """The picklable (kind, timing, policy, tus, key) tuple a worker
    needs to execute one cell."""
    return (cell.key, cell.kind, cell.timing, cell.policy, cell.tus)


def _base_row(cell):
    return {
        "cell_key": cell.key, "trace_key": cell.trace_key,
        "workload": cell.workload, "scale": cell.scale,
        "max_instructions": cell.max_instructions,
        "cls_capacity": cell.cls_capacity, "kind": cell.kind,
        "timing": cell.timing, "policy": cell.policy, "tus": cell.tus,
    }


def run_workload_cells(name, scale, max_instructions, cls_capacity,
                       cache_dir, descriptors, on_row=None):
    """Execute every cell of one workload; returns result row dicts.

    Module-level so the process pool can pickle it.  Every cell is
    first looked up in the derived store (when *cache_dir* is set);
    only if some cell misses is the loop index built, once, and the
    workload's missing simulation configs priced against it in one
    fused :func:`~repro.core.speculation.grid.simulate_grid` call (the
    per-cell engine remains as the fallback, both for configs the grid
    cannot fuse and for a grid call that fails wholesale).  A cell that
    raises becomes a ``failed`` row; an index build that raises fails
    every cell of the workload (the caller records that).

    *on_row*, when given, is called with each finished row dict as it
    completes -- the per-cell checkpointing seam (only useful inline;
    a pool worker has nobody to stream to).
    """
    from repro.analysis.passes import loopstats_from_state, \
        loopstats_state, restore
    from repro.core.loopstats import compute_loop_statistics, \
        loop_coverage
    from repro.core.speculation import simulate, simulate_grid
    from repro.core.speculation.metrics import SpeculationResult
    from repro.pipeline import PipelineConfig, SimulationSession
    from repro.pipeline.derived import DerivedCache
    from repro.sweep.spec import loopstats_cell_suffix, sim_cell_suffix
    from repro.timing import make_timing

    session = SimulationSession(PipelineConfig(
        workloads=(name,), scale=scale,
        max_instructions=max_instructions, cls_capacity=cls_capacity,
        cache_dir=cache_dir))
    derived = None
    if cache_dir is not None:
        from repro.pipeline.cache import TraceCache
        workload = session.workloads[0]
        derived = DerivedCache(cache_dir).store(TraceCache.key(
            name, scale, session.config.limit_for(workload),
            session._fingerprint(name)))

    # Restore every cell the derived store already holds.  Any cell
    # this pass cannot place (bad timing spec) simply stays out of the
    # restored results and the per-cell loop below recomputes it --
    # attributing errors cell by cell exactly as before.
    sim_results = {}
    sim_pending = []
    loopstats_dkey = loopstats_cell_suffix(cls_capacity)
    loopstats = None
    if any(kind == KIND_LOOPSTATS for _, kind, _, _, _ in descriptors):
        loopstats = restore(derived, loopstats_dkey, loopstats_from_state)
    for key, kind, timing, policy, tus in descriptors:
        if kind != KIND_SIM:
            continue
        try:
            model = None if timing == "ideal" else make_timing(timing)
            dkey = sim_cell_suffix(
                tus, policy, None if model is None else model.key(),
                cls_capacity)
            result = restore(derived, dkey, SpeculationResult.from_state)
        except Exception:
            continue
        if result is not None:
            sim_results[key] = result
        else:
            sim_pending.append((key, dkey, (tus, policy, model)))

    # The index is only built when some cell misses; building it
    # outside the per-cell try keeps its failure a workload failure.
    index = None
    if any(key not in sim_results
           and not (kind == KIND_LOOPSTATS and loopstats is not None)
           for key, kind, _, _, _ in descriptors):
        index = session.index(name)

    # Price the missing simulation cells through one fused grid call.
    if sim_pending:
        try:
            computed = simulate_grid(
                index, [config for _, _, config in sim_pending],
                name=name)
        except Exception:
            pass
        else:
            if derived is not None:
                derived.put_cells(
                    (dkey, result.state())
                    for (_, dkey, _), result in zip(sim_pending,
                                                    computed))
            for (key, _, _), result in zip(sim_pending, computed):
                sim_results[key] = result

    rows = []
    for key, kind, timing, policy, tus in descriptors:
        row = {"cell_key": key, "status": "done", "error": None,
               "tpc": None, "hit_ratio": None, "speedup": None,
               "overhead_cycles": None, "detail": None}
        try:
            if kind == KIND_SIM:
                result = sim_results.get(key)
                if result is None:
                    model = None if timing == "ideal" else \
                        make_timing(timing)
                    result = simulate(index, num_tus=tus,
                                      policy=policy, name=name,
                                      timing=model)
                    if derived is not None:
                        derived.put(sim_cell_suffix(
                            tus, policy,
                            None if model is None else model.key(),
                            cls_capacity), result.state())
                row.update(
                    tpc=result.tpc, hit_ratio=result.hit_ratio,
                    speedup=result.speedup_bound,
                    overhead_cycles=result.overhead_cycles,
                    detail=json.dumps(result.state(), sort_keys=True))
            elif kind == KIND_LOOPSTATS:
                if loopstats is None:
                    loopstats = (compute_loop_statistics(index, name),
                                 loop_coverage(index))
                    if derived is not None:
                        derived.put(loopstats_dkey,
                                    loopstats_state(loopstats))
                stats, coverage = loopstats
                row["detail"] = json.dumps(
                    {"stats": stats.state(), "coverage": coverage},
                    sort_keys=True)
            else:
                raise ValueError("unknown cell kind %r" % kind)
        except Exception as exc:
            row["status"] = "failed"
            row["error"] = "%s: %s" % (type(exc).__name__, exc)
        rows.append(row)
        if on_row is not None:
            on_row(row)
    if derived is not None:
        derived.flush()
    return name, rows


def run_sweep(spec, store, jobs=1, cache_dir=None, progress=None,
              dry_run=False, checkpoint="group"):
    """Execute *spec* into *store*; returns :class:`SweepRunStats`.

    *progress*, when given, is called as ``progress(workload,
    executed_so_far, total_missing)`` after each checkpoint commit --
    the fault-injection seam the resume tests use, and the CLI's
    progress line.  *dry_run* plans and registers the sweep but
    executes nothing.

    *checkpoint* picks the commit granularity: ``"group"`` (default)
    commits one transaction per workload group, ``"cell"`` one per
    cell.  Cell granularity matters for very long workloads: inline
    (``jobs <= 1``) each cell commits the moment it is computed, so an
    interrupt mid-workload loses at most the cell in flight; pooled
    workers still return whole groups (results cross the process
    boundary per future), so there it only narrows the commit
    transactions.  Either way the stored rows are identical --
    resume exactness does not depend on the granularity.

    With an obs collector active the whole run is a ``sweep`` span,
    each store commit a ``sweep.checkpoint`` child span, and the run's
    plan/skip/execute/fail/checkpoint tallies land in the
    ``sweep.cells_*`` / ``sweep.checkpoints`` counters.
    """
    if checkpoint not in ("group", "cell"):
        raise ValueError("checkpoint must be 'group' or 'cell', got %r"
                         % (checkpoint,))
    with obs.span("sweep", experiment=spec.experiment, jobs=jobs):
        stats = _run_sweep(spec, store, jobs, cache_dir, progress,
                           dry_run, checkpoint)
    collector = obs.active()
    if collector is not None:
        collector.add("sweep.cells_planned", stats.planned)
        collector.add("sweep.cells_resumed", stats.skipped)
        collector.add("sweep.cells_executed", stats.executed)
        collector.add("sweep.cells_failed", stats.failed)
        collector.add("sweep.checkpoints", stats.checkpoints)
    return stats


def _run_sweep(spec, store, jobs, cache_dir, progress, dry_run,
               checkpoint="group"):
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
        if checkpoint == "cell":
            # One transaction per cell; same rows, narrower commits.
            batches = [[row] for row in rows]
        else:
            batches = [rows]
        for batch in batches:
            with obs.span("sweep.checkpoint", workload=name,
                          rows=len(batch)):
                store.put_cells(batch)
            stats.checkpoints += 1
        if progress is not None:
            progress(name, stats.executed + stats.failed, len(missing))

    def absorb(name, result_rows):
        rows = []
        for partial in result_rows:
            row = _base_row(by_cell[partial["cell_key"]])
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
                [_cell_descriptor(c) for c in groups[name]])

    def fail_group(name, exc, skip_keys=()):
        rows = []
        for cell in groups[name]:
            if cell.key in skip_keys:
                continue
            row = _base_row(cell)
            row.update(status="failed", tpc=None, hit_ratio=None,
                       speedup=None, overhead_cycles=None, detail=None,
                       error="%s: %s" % (type(exc).__name__, exc))
            rows.append(row)
            stats.failed += 1
        commit(name, rows)

    if jobs <= 1 or len(order) <= 1:
        for name in order:
            committed = set()
            on_row = None
            if checkpoint == "cell":
                # Stream: each finished cell commits immediately, so
                # an interrupt mid-workload loses at most the cell in
                # flight.
                def on_row(partial, name=name, committed=committed):
                    row = _base_row(by_cell[partial["cell_key"]])
                    row.update(partial)
                    if partial["status"] == "failed":
                        stats.failed += 1
                    else:
                        stats.executed += 1
                    committed.add(partial["cell_key"])
                    commit(name, [row])
            try:
                _, rows = run_workload_cells(*task_args(name),
                                             on_row=on_row)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                # Index build (or another per-workload stage) died:
                # record every not-yet-committed cell of the group as
                # failed.
                fail_group(name, exc, skip_keys=committed)
            else:
                if on_row is None:
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
