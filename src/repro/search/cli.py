"""``runner search``: the adversarial-search front end.

Submits one :class:`~repro.search.spec.SearchSpec` to the hill climber
(:func:`~repro.search.loop.run_search`) and renders the winner table.
The search checkpoints into the sweep store, so an interrupted run is
resumed by *resubmitting the same command line* -- the trajectory is a
pure function of the flags, and the store hands back every cell the
interrupted run finished.  See ``docs/SEARCH.md``::

    runner search --objective tpc-inversion --budget 200 --seed 7 \\
        --timing overhead:spawn=8
    runner search --objective coverage-collapse --budget 100
    runner search --objective policy-divergence --export-dir tests/frontier
    runner search --list
"""

import argparse
import sys

from repro.search.corpus import export_winners, frontier_names
from repro.search.loop import run_search
from repro.search.objectives import OBJECTIVES, EvalSettings, \
    objective_names
from repro.search.spec import SearchSpec
from repro.sweep.store import SweepStore, SweepStoreError, \
    default_store_dir


def _build_settings(args, parser):
    kwargs = {
        "tus": args.tus,
        "timing": args.timing,
        "scale": args.scale,
        "max_instructions": args.max_instructions,
        "cls_capacity": args.cls_capacity,
    }
    if args.policies is not None:
        policies = tuple(p.strip() for p in args.policies.split(",")
                         if p.strip())
        if not policies:
            parser.error("--policies selected nothing")
        kwargs["policies"] = policies
    if args.policy is not None:
        kwargs["policy"] = args.policy
    elif args.policies is not None:
        # A custom policy set needs an in-set comparison policy.
        kwargs["policy"] = kwargs["policies"][0]
    try:
        return EvalSettings(**kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _winner_table(spec, winners, stats):
    """The deterministic winner table (stats stay out of it, so two
    cold runs of the same spec render byte-identical tables even when
    one restored cells from the store)."""
    from repro.experiments.report import ExperimentResult

    headers = ("rank", "workload", "score", "frontier", "coverage",
               "ideal speedup", "overhead speedup")
    rows = []
    for rank, w in enumerate(winners, start=1):
        ideal = w.metrics.sim(spec.settings.policy, "ideal")
        overhead = w.metrics.sim(spec.settings.policy, "overhead")
        rows.append((rank, w.name, "%.4f" % w.score,
                     "yes" if w.frontier else "no",
                     "%.3f" % w.metrics.coverage,
                     "%.3f" % ideal["speedup"],
                     "%.3f" % overhead["speedup"]))
    return ExperimentResult(
        "search: %s" % spec.objective, headers, rows,
        notes=[OBJECTIVES[spec.objective].description,
               "frontier property: %s"
               % OBJECTIVES[spec.objective].property_text],
        meta={"search_id": spec.sweep_id, "budget": spec.budget,
              "seed": spec.seed})


def search_main(argv=None):
    """Entry point of ``runner search ...``."""
    from repro.experiments.runner import _emit
    from repro.pipeline import default_cache_dir

    parser = argparse.ArgumentParser(
        prog="runner search",
        description="Hunt adversarial synthetic workloads with a "
                    "deterministic, store-checkpointed hill climber.")
    parser.add_argument("--objective", choices=objective_names(),
                        default=None,
                        help="what to maximize (required unless "
                             "--list)")
    parser.add_argument("--budget", type=int, default=200,
                        help="candidate evaluations (default 200)")
    parser.add_argument("--seed", type=int, default=1,
                        help="search trajectory seed (default 1)")
    parser.add_argument("--top", type=int, default=5, metavar="K",
                        help="winners to report (default 5)")
    parser.add_argument("--stall", type=int, default=6, metavar="N",
                        help="rejections before a random restart "
                             "(default 6)")
    parser.add_argument("--tus", type=int, default=4,
                        help="TU count candidates are evaluated at "
                             "(default 4)")
    parser.add_argument("--policy", default=None, metavar="P",
                        help="policy the inversion objective compares "
                             "across timings (default str)")
    parser.add_argument("--policies", default=None, metavar="P,...",
                        help="policies evaluated per candidate "
                             "(default idle,str,str(3))")
    parser.add_argument("--timing", metavar="SPEC",
                        default="overhead:spawn=8,squash=0,promote=0",
                        help="overhead timing model candidates are "
                             "scored under (default %(default)s)")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--cls-capacity", type=int, default=16)
    parser.add_argument("--max-instructions", type=int, default=None)
    parser.add_argument("--store", default=default_store_dir(),
                        metavar="DIR",
                        help="sweep store used as checkpoint + result "
                             "cache (default %(default)s)")
    parser.add_argument("--no-store", action="store_true",
                        help="run without checkpointing (every cell "
                             "recomputes; resume disabled)")
    parser.add_argument("--cache-dir", default=default_cache_dir(),
                        help="trace/derived cache, used only with "
                             "--no-store (default %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the trace/derived caches "
                             "(matters only with --no-store)")
    parser.add_argument("--export-dir", default=None, metavar="DIR",
                        help="export frontier-satisfying winners as "
                             "corpus case files into DIR")
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text")
    parser.add_argument("--output-dir", default=None, metavar="DIR")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a run manifest to PATH (summary "
                             "JSON + .jsonl event stream)")
    parser.add_argument("--list", action="store_true",
                        help="list objectives and the committed "
                             "frontier corpus")
    args = parser.parse_args(argv)

    if args.list:
        print("objectives (--objective):")
        for name in objective_names():
            print("  %-18s %s" % (name, OBJECTIVES[name].description))
        committed = frontier_names()
        print("committed frontier corpus (%d case%s):"
              % (len(committed), "" if len(committed) == 1 else "s"))
        for name in committed:
            print("  %s" % name)
        return 0
    if args.objective is None:
        parser.error("name an --objective (or use --list)")

    settings = _build_settings(args, parser)
    try:
        spec = SearchSpec(objective=args.objective, budget=args.budget,
                          seed=args.seed, top_k=args.top,
                          stall_limit=args.stall, settings=settings)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))

    from repro.obs import RunObserver

    # The search uses the trace cache only without a store, so the
    # manifest copy goes to whichever of the two the run wrote.
    store = None if args.no_store else SweepStore(args.store)
    cache_dir = None if args.no_cache else args.cache_dir
    observer = RunObserver(
        metrics_path=args.metrics,
        argv=["runner", "search"]
        + list(sys.argv[1:] if argv is None else argv),
        command="search",
        copy_dirs=(args.store,) if store is not None else (cache_dir,))

    def progress(index, outcome, score):
        print("[%d/%d] %s score=%s cells: %d run, %d restored"
              % (index + 1, spec.budget, outcome.name,
                 "failed" if score is None else "%.4f" % score,
                 outcome.executed, outcome.restored),
              file=sys.stderr)

    try:
        with observer:
            winners, stats = run_search(spec, store=store,
                                        cache_dir=cache_dir,
                                        progress=progress)
    except SweepStoreError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if store is not None:
            store.close()

    print("search %s: %d evaluated (%d memo hits, %d failures), "
          "%d accepted, %d restarts, cells: %d executed, %d restored"
          % (spec.sweep_id, stats.evaluated, stats.memo_hits,
             stats.failures, stats.accepted, stats.restarts,
             stats.executed_cells, stats.restored_cells),
          file=sys.stderr)

    observer.finalize(extra_meta={
        "search_id": spec.sweep_id, "objective": spec.objective,
        "evaluated": stats.evaluated, "memo_hits": stats.memo_hits,
        "failures": stats.failures, "accepted": stats.accepted,
        "restarts": stats.restarts,
        "best_score": stats.best_score})

    _emit("search-%s" % spec.objective, [_winner_table(spec, winners,
                                                       stats)],
          args.format, args.output_dir)

    if args.export_dir is not None:
        paths = export_winners(spec, winners, directory=args.export_dir)
        for path in paths:
            print("exported %s" % path)
        if not paths:
            print("no winners satisfied the frontier property; "
                  "nothing exported")
    return 0
