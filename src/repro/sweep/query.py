"""Query and aggregation layer over the sweep result store.

Three read paths, all returning :class:`~repro.experiments.report.
ExperimentResult` tables so they render through the runner's existing
``--format``/``--output-dir`` machinery:

* :func:`cell_listing` -- one row per stored cell under the given
  filters (the raw inspection view);
* :func:`grouped_listing` -- group-by aggregates (cell counts and
  mean/min/max metrics per workload, policy, TU count, timing model,
  or status);
* :func:`sweep_report` -- the *experiment report* of one stored sweep:
  the experiment's own analysis (:meth:`~repro.sweep.spec.SweepSpec.
  analysis`) run over the stored cells, so the output is
  byte-identical to running the experiment directly.

Reports require a complete sweep: metrics of failed or missing cells
cannot be invented, so :func:`sweep_report` raises a clean
:class:`ValueError` telling the user to resubmit (resume) first.
"""

import json

from repro.analysis.base import WorkloadContext
from repro.experiments.report import ExperimentResult
from repro.sweep.spec import expand_cells


def _round(value, digits=3):
    return "-" if value is None else round(value, digits)


def cell_listing(rows, store_root):
    """One table row per stored cell, deterministic order."""
    table = [(row.workload, row.kind,
              row.timing if row.timing is not None else "-",
              row.policy if row.policy is not None else "-",
              row.tus if row.tus is not None else "-",
              row.status, _round(row.tpc),
              "-" if row.hit_ratio is None
              else round(100.0 * row.hit_ratio, 1),
              _round(row.speedup))
             for row in rows]
    return ExperimentResult(
        "Sweep cells (%d)" % len(rows),
        ("workload", "kind", "timing", "policy", "TUs", "status",
         "tpc", "hit%", "speedup"),
        table,
        notes=["store: %s" % store_root],
    )


#: Columns ``--group-by`` accepts (cell attributes).
GROUP_KEYS = ("workload", "kind", "timing", "policy", "tus", "status")


def grouped_listing(rows, group_by, store_root):
    """Aggregate *rows* per *group_by* key: cell counts plus
    mean/min/max TPC and mean hit%/speedup over the done simulation
    cells of each group."""
    if group_by not in GROUP_KEYS:
        raise ValueError("unknown group-by key %r (known: %s)"
                         % (group_by, ", ".join(GROUP_KEYS)))
    groups = {}
    order = []
    for row in rows:
        key = getattr(row, group_by)
        key = "-" if key is None else key
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    order.sort(key=lambda k: str(k))
    table = []
    for key in order:
        members = groups[key]
        done = [r for r in members if r.status == "done"]
        failed = sum(1 for r in members if r.status == "failed")
        tpcs = [r.tpc for r in done if r.tpc is not None]
        hits = [r.hit_ratio for r in done if r.hit_ratio is not None]
        speedups = [r.speedup for r in done if r.speedup is not None]
        table.append((
            key, len(members), len(done), failed,
            _round(sum(tpcs) / len(tpcs)) if tpcs else "-",
            _round(min(tpcs)) if tpcs else "-",
            _round(max(tpcs)) if tpcs else "-",
            round(100.0 * sum(hits) / len(hits), 1) if hits else "-",
            _round(sum(speedups) / len(speedups)) if speedups else "-",
        ))
    return ExperimentResult(
        "Sweep cells by %s" % group_by,
        (group_by, "cells", "done", "failed", "mean tpc", "min tpc",
         "max tpc", "mean hit%", "mean speedup"),
        table,
        notes=["metric aggregates cover done simulation cells only",
               "store: %s" % store_root],
    )


class _StoredCells:
    """A read-only derived-store view of one workload's stored cells:
    ``get(memo key)`` is the cell's result state."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def get(self, key):
        row = self._rows.get(key)
        return None if row is None else row.detail_json


def _unreadable(spec):
    """The trace and index loader of a report context over *spec*'s
    cells: reached only when a stored result is one its analysis
    rejects."""
    def load(ctx):
        raise ValueError(
            "workload %s has an unreadable result blob in sweep %s; "
            "prune the store and resubmit the sweep"
            % (ctx.name, spec.sweep_id))
    return load


def _complete_cells(store, spec):
    """``cell_key -> CellRow`` for every cell of *spec*, raising a
    clean error when any is missing or failed."""
    cells = expand_cells(spec)
    rows = {row.cell_key: row
            for row in store.get_cells(cell_keys=[c.key for c in cells])}
    missing = [c for c in cells if c.key not in rows]
    failed = [c for c in cells
              if c.key in rows and rows[c.key].status != "done"]
    if missing or failed:
        raise ValueError(
            "sweep %s is incomplete: %d cell(s) missing, %d failed "
            "of %d; resubmit it (runner sweep --resume %s) and query "
            "again" % (spec.sweep_id, len(missing), len(failed),
                       len(cells), spec.sweep_id))
    return cells, rows


def sweep_report(store, spec):
    """The experiment report of *spec* rebuilt from stored cells.

    Runs the experiment's analysis over one context per workload whose
    derived store is that workload's stored cells, and returns the
    same ``[ExperimentResult, ...]`` list the direct experiment
    produces, byte-identical under every output format.  The report
    builds no index, touches no trace and writes nothing: a stored
    result the analysis cannot read is a clean error.
    """
    cells, rows = _complete_cells(store, spec)
    stored = {name: {} for name in spec.workloads}
    for cell in cells:
        # The cell key is the result's memo key under the trace key.
        stored[cell.workload][cell.key[len(cell.trace_key) + 1:]] = \
            rows[cell.key]

    analysis = spec.analysis()
    unreadable = _unreadable(spec)
    for name in spec.workloads:
        # Only the trace knows the instruction count; no swept
        # analysis reads it.
        ctx = WorkloadContext(
            name, 0, scale=spec.scale, cls_capacity=spec.cls_capacity,
            derived=_StoredCells(stored[name]),
            load_trace=unreadable, load_index=unreadable)
        analysis.finish(ctx)
    result = analysis.result()
    return result if isinstance(result, list) else [result]


def sweep_overview(store):
    """One table row per stored sweep (id, experiment, progress)."""
    table = []
    for sweep_id, experiment, spec_json, _, _ in store.sweeps():
        try:
            workloads = len(json.loads(spec_json)["workloads"])
        except (ValueError, KeyError, TypeError):
            workloads = "?"
        total, done, failed = store.counts(sweep_id)
        table.append((sweep_id, experiment, workloads, total, done,
                      failed))
    return ExperimentResult(
        "Sweeps (%d)" % len(table),
        ("sweep", "experiment", "workloads", "cells", "done", "failed"),
        table,
        notes=["store: %s" % store.root],
    )
