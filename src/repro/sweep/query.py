"""Query and aggregation layer over the sweep result store.

Three read paths, all returning :class:`~repro.experiments.report.
ExperimentResult` tables so they render through the runner's existing
``--format``/``--output-dir`` machinery:

* :func:`cell_listing` -- one row per stored cell under the given
  filters (the raw inspection view);
* :func:`grouped_listing` -- group-by aggregates (cell counts and
  mean/min/max metrics per workload, policy, TU count, timing model,
  or status);
* :func:`sweep_report` -- the *experiment report* of one stored sweep,
  rebuilt from the store through the same table builders the direct
  experiments render with
  (:class:`~repro.experiments.sensitivity.SensitivityTables`,
  :class:`~repro.experiments.characterize.CharacterizeTables`,
  :class:`~repro.experiments.figure6.Figure6Tables`,
  :class:`~repro.experiments.figure7.Figure7Tables`,
  :class:`~repro.experiments.table2.Table2Tables`), so the output is
  byte-identical to running the experiment directly.

Reports require a complete sweep: metrics of failed or missing cells
cannot be invented, so :func:`sweep_report` raises a clean
:class:`ValueError` telling the user to resubmit (resume) first.
"""

import json

from repro.experiments.report import ExperimentResult
from repro.sweep.spec import KIND_LOOPSTATS, KIND_SIM, expand_cells


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


def _restore(row, from_state):
    """``from_state`` of *row*'s stored result; a blob it rejects is a
    clean error telling the user to prune and resubmit."""
    try:
        return from_state(row.detail_json)
    except (KeyError, TypeError, ValueError):
        raise ValueError(
            "cell %s has an unreadable result blob; prune the store "
            "and resubmit the sweep" % row.cell_key) from None


def _restore_sim(row):
    from repro.core.speculation.metrics import SpeculationResult

    return _restore(row, SpeculationResult.from_state)


def _restore_loopstats(row):
    from repro.analysis.passes import loopstats_from_state

    return _restore(row, loopstats_from_state)


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

    Returns the same ``[ExperimentResult, ...]`` list the direct
    experiment produces, byte-identical under every output format.
    """
    cells, rows = _complete_cells(store, spec)
    # (workload, kind, policy, tus, spawn cost) -> row; every
    # ideal-machine simulation cell is a spawn-cost-0 point.
    by_cell = {}
    for cell in cells:
        by_cell[(cell.workload, cell.kind, cell.policy, cell.tus,
                 cell.spawn_cost)] = rows[cell.key]

    if spec.experiment == "sensitivity":
        from repro.experiments.sensitivity import SensitivityTables

        tables = SensitivityTables(spec.spawn_costs, spec.tu_counts,
                                   spec.policies, spec.squash_cost,
                                   spec.promote_cost)
        for name in spec.workloads:
            def results(policy, tus, cost, name=name):
                return _restore_sim(
                    by_cell[(name, KIND_SIM, policy, tus, cost)])
            tables.add_workload(name, results)
        return tables.results()

    def ideal_sim(name, policy, tus):
        return _restore_sim(by_cell[(name, KIND_SIM, policy, tus, 0)])

    if spec.experiment == "figure6":
        from repro.experiments.figure6 import POLICY, Figure6Tables

        tables = Figure6Tables(spec.tu_counts)
        for name in spec.workloads:
            tables.add_workload(
                name, lambda tus, name=name: ideal_sim(name, POLICY,
                                                       tus))
        return [tables.results()]

    if spec.experiment == "figure7":
        from repro.experiments.figure7 import Figure7Tables

        tables = Figure7Tables(spec.policies, spec.tu_counts)
        for name in spec.workloads:
            tables.add_workload(
                name, lambda policy, tus, name=name: ideal_sim(
                    name, policy, tus))
        return [tables.results()]

    if spec.experiment == "table2":
        from repro.experiments.table2 import POLICY, Table2Tables

        tables = Table2Tables(spec.num_tus)
        for name in spec.workloads:
            tables.add_workload(name, ideal_sim(name, POLICY,
                                                spec.num_tus))
        return [tables.results()]

    from repro.experiments.characterize import CharacterizeTables

    tables = CharacterizeTables(spec.policies, spec.num_tus)
    for name in spec.workloads:
        stats, coverage = _restore_loopstats(
            by_cell[(name, KIND_LOOPSTATS, None, None, None)])
        tables.add_workload(
            name, stats, coverage,
            lambda policy, name=name: ideal_sim(name, policy,
                                                spec.num_tus))
    return tables.results()


def sweep_overview(store):
    """One table row per stored sweep (id, experiment, progress)."""
    table = []
    for sweep_id, experiment, spec_json, _, _ in store.sweeps():
        try:
            workloads = len(json.loads(spec_json)["workloads"])
        except (ValueError, KeyError, TypeError):
            workloads = "?"
        total = store.sweep_total(sweep_id)
        _, done, failed = store.counts(sweep_id)
        table.append((sweep_id, experiment, workloads, total, done,
                      failed))
    return ExperimentResult(
        "Sweeps (%d)" % len(table),
        ("sweep", "experiment", "workloads", "cells", "done", "failed"),
        table,
        notes=["store: %s" % store.root],
    )
