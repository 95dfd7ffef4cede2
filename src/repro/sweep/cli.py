"""``runner sweep`` / ``runner query``: the store-backed front end.

``runner sweep`` submits an experiment grid to the orchestrator;
resubmitting the same grid resumes it (only missing cells execute, a
completed sweep reruns as 0 cells).  ``runner query`` reads the store
back: raw cell listings, group-by aggregates, and full experiment
reports rebuilt byte-identical to the direct experiments.  See
``docs/SWEEPS.md``::

    runner sweep sensitivity --workloads swim,go --spawn-cost 0,8
    runner sweep characterize --profile deep-nest --count 25
    runner sweep --resume 1f8a0c93d2e47b56
    runner query --list
    runner query --sweep 1f8a --report
    runner query --workloads swim --status failed
    runner query --group-by policy --format csv
"""

import argparse
import os
import sys

from repro.sweep.orchestrator import run_sweep
from repro.sweep.spec import EXPERIMENT_AXES, SWEEP_EXPERIMENTS, \
    SweepSpec, default_axes
from repro.sweep.store import SweepStore, SweepStoreError, \
    default_store_dir


def _add_store_arg(parser):
    parser.add_argument("--store", default=default_store_dir(),
                        metavar="DIR",
                        help="sweep result store (default %(default)s)")


def _parse_names(option, spec, parser):
    names = tuple(n.strip() for n in spec.split(",") if n.strip())
    if not names:
        parser.error("%s selected nothing" % option)
    return names


def _parse_int_list(option, spec, parser):
    """Comma-separated non-negative integers, as for ``--spawn-cost``."""
    try:
        values = tuple(int(v.strip()) for v in spec.split(",")
                       if v.strip())
    except ValueError:
        parser.error("%s expects comma-separated integers, got %r"
                     % (option, spec))
    if not values:
        parser.error("%s selected nothing" % option)
    return values


#: Grid flags: ``(flag, argparse dest, spec axis)``.  The direct
#: runner's sensitivity flags are the sensitivity axes' rows.
AXIS_FLAGS = (
    ("--spawn-cost", "spawn_cost", "spawn_costs"),
    ("--squash-cost", "squash_cost", "squash_cost"),
    ("--promote-cost", "promote_cost", "promote_cost"),
    ("--tus", "tus", "tu_counts"),
    ("--num-tus", "num_tus", "num_tus"),
    ("--policies", "policies", "policies"),
)


def axis_values(args, parser):
    """``axis -> value`` of every :data:`AXIS_FLAGS` flag set in *args*,
    parsed from its command-line text."""
    values = {}
    for flag, dest, axis in AXIS_FLAGS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if axis == "policies":
            value = _parse_names(flag, value, parser)
        elif axis in ("spawn_costs", "tu_counts"):
            value = _parse_int_list(flag, value, parser)
        values[axis] = value
    return values


def _build_spec(args, parser):
    """The spec for this submission; workloads follow the direct
    runner's rules, and axes no flag sets take the experiment's own
    defaults, so a sweep and its direct run agree."""
    from repro.experiments.runner import _parse_workloads, \
        _synthetic_sweep
    from repro.workloads import SUITE_ORDER

    experiment = args.experiment
    axes = EXPERIMENT_AXES[experiment]
    misplaced = {}
    for flag, dest, axis in AXIS_FLAGS:
        if getattr(args, dest) is not None and axis not in axes:
            owners = "/".join(name for name in SWEEP_EXPERIMENTS
                              if axis in EXPERIMENT_AXES[name])
            misplaced.setdefault(owners, []).append(flag)
    for owners, flags in misplaced.items():
        parser.error("%s appl%s to %s sweeps only"
                     % (", ".join(flags),
                        "ies" if len(flags) == 1 else "y", owners))

    workloads = _synthetic_sweep(args, (experiment,), parser)
    if workloads is None:
        workloads = (tuple(SUITE_ORDER) if args.workloads is None
                     else _parse_workloads(args.workloads, parser))
    values = default_axes(experiment)
    values.update(axis_values(args, parser))
    try:
        return SweepSpec(experiment=experiment, workloads=workloads,
                         scale=args.scale,
                         cls_capacity=args.cls_capacity,
                         max_instructions=args.max_instructions,
                         **values)
    except ValueError as exc:
        parser.error(str(exc))


def sweep_main(argv=None):
    """Entry point of ``runner sweep ...``."""
    from repro.pipeline import default_cache_dir

    parser = argparse.ArgumentParser(
        prog="runner sweep",
        description="Submit (or resume) an experiment grid into the "
                    "sharded, resumable sweep store.")
    parser.add_argument("experiment", nargs="?",
                        choices=SWEEP_EXPERIMENTS,
                        help="grid to run (omit with --resume)")
    parser.add_argument("--resume", default=None, metavar="ID",
                        help="re-execute a stored sweep's missing/"
                             "failed cells (unique id prefix)")
    parser.add_argument("--workloads", default=None, metavar="A,B,...")
    parser.add_argument("--profile", default=None, metavar="NAME",
                        help="sweep a generated synthetic profile "
                             "(characterize default: baseline)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--cls-capacity", type=int, default=16)
    parser.add_argument("--max-instructions", type=int, default=None)
    parser.add_argument("--spawn-cost", default=None, metavar="N,...")
    parser.add_argument("--tus", default=None, metavar="N,...")
    parser.add_argument("--policies", default=None, metavar="P,...")
    parser.add_argument("--squash-cost", type=int, default=None,
                        metavar="N")
    parser.add_argument("--promote-cost", type=int, default=None,
                        metavar="N")
    parser.add_argument("--num-tus", type=int, default=None,
                        metavar="N",
                        help="characterize/table2 sweeps: TUs per "
                             "policy run (default 4)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--cache-dir", default=default_cache_dir())
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the trace/derived caches (cells "
                             "recompute from scratch)")
    parser.add_argument("--dry-run", action="store_true",
                        help="plan and register the sweep without "
                             "executing cells")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a run manifest to PATH (summary "
                             "JSON + .jsonl event stream)")
    _add_store_arg(parser)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    from repro.obs import ProgressLine, RunObserver

    cache_dir = None if args.no_cache else args.cache_dir
    observer = RunObserver(
        metrics_path=args.metrics,
        argv=["runner", "sweep"]
        + list(sys.argv[1:] if argv is None else argv),
        command="sweep", copy_dirs=(args.store, cache_dir))
    store = SweepStore(args.store)
    line = None
    try:
        with observer:
            if args.resume is not None:
                if args.experiment is not None \
                        or args.workloads is not None \
                        or args.profile is not None:
                    parser.error("--resume re-executes a stored grid; "
                                 "do not combine it with grid flags")
                spec = store.spec_for(args.resume)
            else:
                if args.experiment is None:
                    parser.error("name an experiment (%s) or use "
                                 "--resume"
                                 % "|".join(SWEEP_EXPERIMENTS))
                spec = _build_spec(args, parser)

            def progress(name, finished, total):
                # On an interactive stderr the live cells line replaces
                # the per-checkpoint stdout chatter; piped runs keep
                # the historical lines (and no control characters).
                nonlocal line
                if line is None:
                    line = ProgressLine(total)
                line.update(finished)
                if not line.enabled:
                    print("[%s stored, %d/%d cell(s)]"
                          % (name, finished, total))

            stats = run_sweep(spec, store, jobs=args.jobs,
                              cache_dir=cache_dir, progress=progress,
                              dry_run=args.dry_run)
    except SweepStoreError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if line is not None:
            line.close()
        store.close()
    print("sweep %s: %s over %d workload(s), %d cell(s)"
          % (stats.sweep_id, spec.experiment, len(spec.workloads),
             stats.planned))
    print("store: %s" % args.store)
    print("planned %d, skipped %d, executed %d, failed %d"
          % (stats.planned, stats.skipped, stats.executed,
             stats.failed))
    observer.finalize(extra_meta={
        "sweep_id": stats.sweep_id, "experiment": spec.experiment,
        "planned": stats.planned, "skipped": stats.skipped,
        "executed": stats.executed, "failed": stats.failed})
    if args.dry_run:
        print("dry run: no cells executed")
    elif stats.failed:
        print("%d cell(s) failed; inspect with 'runner query --store "
              "%s --status failed' and resubmit to retry"
              % (stats.failed, args.store))
    elif stats.skipped == stats.planned:
        print("sweep already complete; query it with 'runner query "
              "--store %s --sweep %s --report'"
              % (args.store, stats.sweep_id))
    return 0


def query_main(argv=None):
    """Entry point of ``runner query ...``."""
    from repro.experiments.runner import _emit
    from repro.sweep.query import GROUP_KEYS, cell_listing, \
        grouped_listing, sweep_overview, sweep_report

    parser = argparse.ArgumentParser(
        prog="runner query",
        description="Filter, aggregate, and report results from the "
                    "sweep store.")
    parser.add_argument("--sweep", default=None, metavar="ID",
                        help="scope to one sweep (unique id prefix; "
                             "default for --report: the most recently "
                             "updated sweep)")
    parser.add_argument("--report", action="store_true",
                        help="rebuild the sweep's experiment report "
                             "(byte-identical to the direct run)")
    parser.add_argument("--list", action="store_true",
                        help="list stored sweeps")
    parser.add_argument("--workloads", default=None, metavar="A,B,...")
    parser.add_argument("--policies", default=None, metavar="P,...")
    parser.add_argument("--tus", default=None, metavar="N,...")
    parser.add_argument("--timing", default=None, metavar="T,...",
                        help="canonical timing spec filter, e.g. "
                             "ideal or overhead:spawn=8,squash=0,"
                             "promote=0")
    parser.add_argument("--kind", default=None,
                        choices=("sim", "loopstats"))
    parser.add_argument("--status", default=None,
                        choices=("done", "failed"))
    parser.add_argument("--group-by", default=None,
                        choices=GROUP_KEYS)
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")
    parser.add_argument("--output-dir", default=None, metavar="DIR")
    _add_store_arg(parser)
    args = parser.parse_args(argv)

    if args.report and (args.list or args.group_by is not None):
        parser.error("--report renders the experiment tables; drop "
                     "--list/--group-by")

    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)

    store = SweepStore(args.store)
    try:
        if args.list:
            results = [sweep_overview(store)]
            name = "sweeps"
        elif args.report:
            sweep_id = args.sweep or store.latest_sweep_id()
            if sweep_id is None:
                print("error: store %s has no sweeps" % args.store,
                      file=sys.stderr)
                return 1
            spec = store.spec_for(sweep_id)
            results = sweep_report(store, spec)
            name = spec.experiment
        else:
            sweep_id = None
            if args.sweep is not None:
                # Resolve prefixes the same way --report does.
                sweep_id = store.spec_for(args.sweep).sweep_id
            filters = {}
            if args.workloads is not None:
                filters["workloads"] = _parse_names(
                    "--workloads", args.workloads, parser)
            if args.policies is not None:
                filters["policies"] = _parse_names(
                    "--policies", args.policies, parser)
            if args.tus is not None:
                filters["tus"] = _parse_int_list("--tus", args.tus,
                                                 parser)
            if args.timing is not None:
                filters["timings"] = _parse_names(
                    "--timing", args.timing, parser)
            if args.kind is not None:
                filters["kinds"] = (args.kind,)
            rows = store.get_cells(sweep_id=sweep_id,
                                   status=args.status, **filters)
            if args.group_by is not None:
                results = [grouped_listing(rows, args.group_by,
                                           store.root)]
            else:
                results = [cell_listing(rows, store.root)]
            name = "query"
    except (SweepStoreError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        store.close()
    _emit(name, results, args.format, args.output_dir)
    return 0
