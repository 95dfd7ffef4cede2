"""Sharded, resumable experiment sweeps over an on-disk result store.

The subsystem splits a swept experiment into content-keyed *cells*
(one simulation or loop-statistics computation each), shards them
across a process pool, and checkpoints each workload's finished cells
into a schema-versioned sqlite store.  Interrupt a sweep and resubmit the
same grid: only the missing cells execute, and a completed sweep
reruns as 0 cells.  The query layer rebuilds the experiment report
from stored cells byte-identical to the direct run.

See ``docs/SWEEPS.md`` for the full tour; the CLI front end is
``runner sweep`` / ``runner query`` (:mod:`repro.sweep.cli`).
"""

from repro.sweep.orchestrator import SweepRunStats, run_sweep
from repro.sweep.query import cell_listing, grouped_listing, \
    sweep_overview, sweep_report
from repro.sweep.spec import Cell, SweepSpec, expand_cells
from repro.sweep.store import CellRow, SweepStore, SweepStoreError, \
    default_store_dir

__all__ = [
    "Cell",
    "CellRow",
    "SweepRunStats",
    "SweepSpec",
    "SweepStore",
    "SweepStoreError",
    "cell_listing",
    "default_store_dir",
    "expand_cells",
    "grouped_listing",
    "run_sweep",
    "sweep_overview",
    "sweep_report",
]
