"""Experiment command-line entry point over the simulation pipeline.

Every experiment is a streaming :class:`~repro.analysis.base.Analysis`
named in :data:`EXPERIMENTS`; the runner composes the requested ones
into a single :class:`~repro.analysis.suite.AnalysisSuite` and calls
:meth:`SimulationSession.analyze
<repro.pipeline.session.SimulationSession.analyze>` exactly once --
one event-stream replay per workload feeds *all* selected experiments,
however many are requested.  Tracing still fans out across ``--jobs``
processes, which fill the content-keyed on-disk cache (``--cache-dir``,
on by default; ``--no-cache`` disables it and allows ``--jobs 1``
only).

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner table1 figure6
    python -m repro.experiments.runner all --scale 2 --jobs 4
    python -m repro.experiments.runner table2 --workloads swim,go
    python -m repro.experiments.runner all --format csv --output-dir out/
    python -m repro.experiments.runner all --no-cache
    python -m repro.experiments.runner characterize \
        --profile deep-nest --seed 7 --count 25
    python -m repro.experiments.runner table1 --profile irregular
    python -m repro.experiments.runner figure6 --timing overhead:spawn=8
    python -m repro.experiments.runner sensitivity \
        --spawn-cost 0,2,8,32 --tus 2,4,8,16
    python -m repro.experiments.runner all --profile-run 30
    python -m repro.experiments.runner sweep sensitivity \
        --workloads swim,go --spawn-cost 0,8 --jobs 4
    python -m repro.experiments.runner query --report
    python -m repro.experiments.runner search \
        --objective tpc-inversion --budget 200 --seed 7

``search`` routes to the adversarial workload search
(:mod:`repro.search`, docs/SEARCH.md): a deterministic hill climber
over synthetic profile knobs that checkpoints into the sweep store and
promotes winners into the committed frontier corpus.

``sweep`` and ``query`` route to the resumable sweep subsystem
(:mod:`repro.sweep`, docs/SWEEPS.md): sweeps checkpoint each
workload's finished cells into an on-disk store, survive interruption
(resubmit to resume; Ctrl-C exits 130 after flushing finished cells),
and ``query`` rebuilds reports from the store byte-identical to the
direct runs above.

``--timing name[:k=v,...]`` selects the timing model speculation
experiments simulate under (see ``--list`` and docs/TIMING.md; default:
the paper's ideal machine).  ``sensitivity`` sweeps its own overhead
models and ignores ``--timing``.

``all`` composes with explicit names (``table1 all`` runs table1 first,
then the rest); duplicates run once.  The runner is the only command
line entry point; an experiment module only defines its analysis.
"""

import argparse
import os
import sys
import time

from repro.analysis import AnalysisSuite
from repro.experiments.ablations import AblationsAnalysis
from repro.experiments.baselines import BaselinesAnalysis
from repro.experiments.characterize import CharacterizeAnalysis
from repro.experiments.extensions import ExtensionsAnalysis
from repro.experiments.figure4 import Figure4Analysis
from repro.experiments.figure5 import Figure5Analysis
from repro.experiments.figure6 import Figure6Analysis
from repro.experiments.figure7 import Figure7Analysis
from repro.experiments.figure8 import Figure8Analysis
from repro.experiments.sensitivity import SensitivityAnalysis
from repro.experiments.table1 import Table1Analysis
from repro.experiments.table2 import Table2Analysis
from repro.pipeline import PipelineConfig, SimulationSession, \
    default_cache_dir
from repro.workloads import SUITE_ORDER, get as get_workload, \
    names as workload_names

#: Every experiment's analysis class by name: the paper's tables and
#: figures in paper order (what ``all`` runs), then the extras.
EXPERIMENTS = {
    "table1": Table1Analysis,
    "figure4": Figure4Analysis,
    "figure5": Figure5Analysis,
    "figure6": Figure6Analysis,
    "figure7": Figure7Analysis,
    "table2": Table2Analysis,
    "figure8": Figure8Analysis,
    "ablations": AblationsAnalysis,
    "baselines": BaselinesAnalysis,
    "extensions": ExtensionsAnalysis,
    "characterize": CharacterizeAnalysis,
    "sensitivity": SensitivityAnalysis,
}

#: Experiments beyond the paper's tables/figures.  Selectable by name
#: but never part of ``all`` (the characterization sweep targets
#: generated synthetic workloads; the sensitivity sweep departs from
#: the paper's idealized timing).
EXTRA_EXPERIMENTS = ("characterize", "sensitivity")

#: Paper order of the experiments (the order ``all`` runs them in).
EXPERIMENT_ORDER = tuple(name for name in EXPERIMENTS
                         if name not in EXTRA_EXPERIMENTS)


def available_experiments():
    """Name -> analysis class for every paper experiment, in paper
    order (the ``all`` expansion)."""
    return {name: EXPERIMENTS[name] for name in EXPERIMENT_ORDER}


def select_experiments(requested, available, extras=()):
    """Expand ``all`` and de-duplicate, preserving first-seen order.

    ``all`` expands to *available* (the paper set) only; *extras* are
    selectable by explicit name.  Raises :class:`ValueError` naming any
    unknown experiments.
    """
    unknown = [name for name in requested
               if name != "all" and name not in available
               and name not in extras]
    if unknown:
        raise ValueError("unknown experiments: %s" % ", ".join(unknown))
    selected = []
    for name in requested:
        expansion = list(available) if name == "all" else [name]
        for exp in expansion:
            if exp not in selected:
                selected.append(exp)
    return selected


def build_suite(selected, overrides=None):
    """An :class:`AnalysisSuite` with one pass per selected experiment,
    built from :data:`EXPERIMENTS`; returns ``(suite, {name:
    analysis})``.

    *overrides* maps experiment names to constructor keyword arguments
    (the runner uses it to hand the sensitivity sweep its CLI-selected
    cost and TU lists).
    """
    suite = AnalysisSuite()
    by_name = {}
    for name in selected:
        kwargs = overrides.get(name, {}) if overrides else {}
        by_name[name] = suite.add(EXPERIMENTS[name](**kwargs), name=name)
    return suite, by_name


def _parse_workloads(spec, parser):
    names = []
    known = set(workload_names())
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in known:
            try:
                # synth-<profile>-<seed> resolves through the generator.
                get_workload(name)
            except KeyError:
                parser.error("unknown workload %r (see --list)" % name)
        if name not in names:
            names.append(name)
    if not names:
        parser.error("--workloads selected nothing")
    return tuple(names)


def _synthetic_sweep(args, selected, parser):
    """The synthetic workload tuple for this invocation, or ``None``.

    ``--profile``/``--seed``/``--count`` select a generated sweep for
    *any* experiment; ``characterize`` without an explicit workload set
    defaults to the ``baseline`` profile (``sensitivity`` defaults to
    the analog suite, like the paper experiments).  Sweep flags that
    would have no effect are rejected rather than silently ignored.
    """
    wants_sweep = args.profile is not None \
        or "characterize" in selected
    if not wants_sweep or args.workloads is not None:
        if args.profile is not None:
            parser.error("--profile and --workloads are mutually "
                         "exclusive")
        if args.seed is not None or args.count is not None:
            parser.error("--seed/--count apply to a synthetic sweep "
                         "only (use --profile, or the characterize "
                         "experiment without --workloads)")
        return None
    from repro.workloads.synthetic import sweep_names
    try:
        names = sweep_names(args.profile or "baseline",
                            1 if args.seed is None else args.seed,
                            10 if args.count is None else args.count)
        for name in names:
            get_workload(name)      # resolve + register up front
    except (KeyError, ValueError) as exc:
        parser.error(str(exc))
    return tuple(names)


def _sensitivity_overrides(args, selected, parser):
    """Constructor kwargs for the sensitivity sweep, or ``{}``; its
    flags parse as ``runner sweep sensitivity`` parses them
    (:func:`repro.sweep.cli.axis_values`).

    Sweep flags given without the sensitivity experiment are rejected
    rather than silently ignored.
    """
    from repro.sweep.cli import AXIS_FLAGS, axis_values

    if "sensitivity" in selected:
        return {"sensitivity": axis_values(args, parser)}
    given = [flag for flag, dest, _ in AXIS_FLAGS
             if getattr(args, dest, None) is not None]
    if given:
        parser.error("%s appl%s to the sensitivity experiment only"
                     % (", ".join(given),
                        "ies" if len(given) == 1 else "y"))
    return {}


def _emit(name, results, fmt, output_dir):
    """Render one experiment's result list per ``--format`` /
    ``--output-dir``; returns the lines printed to stdout."""
    formats = {
        "text": (lambda r: r.render() + "\n", ".txt"),
        "csv": (lambda r: r.to_csv(), ".csv"),
        "json": (lambda r: r.to_json() + "\n", ".json"),
    }
    render, suffix = formats[fmt]
    for i, result in enumerate(results):
        text = render(result)
        if output_dir is not None:
            stem = name if len(results) == 1 else "%s-%d" % (name, i + 1)
            path = os.path.join(output_dir, stem + suffix)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print("wrote %s" % path)
        else:
            print(text)


def main(argv=None):
    """Top-level dispatch: ``sweep``/``query`` route to the sweep
    subsystem (:mod:`repro.sweep.cli`); anything else runs experiments
    directly.  ``KeyboardInterrupt`` exits 130 everywhere -- the sweep
    orchestrator checkpoints finished cells before the interrupt
    propagates here, so an interrupted sweep resumes where it left off.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "sweep":
            from repro.sweep.cli import sweep_main
            return sweep_main(argv[1:])
        if argv and argv[0] == "query":
            from repro.sweep.cli import query_main
            return query_main(argv[1:])
        if argv and argv[0] == "search":
            from repro.search.cli import search_main
            return search_main(argv[1:])
        return _main(argv)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _main(argv):
    experiments = available_experiments()
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names and/or 'all'")
    parser.add_argument("--scale", type=int, default=1,
                        help="workload size multiplier (default 1)")
    parser.add_argument("--cls-capacity", type=int, default=16)
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="per-workload instruction budget override")
    parser.add_argument("--workloads", default=None, metavar="A,B,...",
                        help="comma-separated workload subset "
                             "(default: full suite); synth-<profile>-"
                             "<seed> names are generated on demand")
    parser.add_argument("--profile", default=None, metavar="NAME",
                        help="run over a generated synthetic sweep of "
                             "this profile instead of the analog suite "
                             "(see --list; default for characterize: "
                             "baseline)")
    parser.add_argument("--seed", type=int, default=None,
                        help="first seed of the synthetic sweep "
                             "(default 1)")
    parser.add_argument("--count", type=int, default=None,
                        help="workloads in the synthetic sweep "
                             "(default 10)")
    parser.add_argument("--timing", default=None, metavar="SPEC",
                        help="timing model for speculation experiments "
                             "as name[:k=v,...], e.g. overhead:spawn=8 "
                             "(see --list; default: ideal)")
    parser.add_argument("--spawn-cost", default=None, metavar="N,...",
                        help="sensitivity sweep: thread-spawn costs "
                             "(default 0,2,8,32)")
    parser.add_argument("--tus", default=None, metavar="N,...",
                        help="sensitivity sweep: TU counts "
                             "(default 2,4,8,16)")
    parser.add_argument("--policies", default=None, metavar="P,...",
                        help="sensitivity sweep: policies "
                             "(default idle,str,str(3))")
    parser.add_argument("--squash-cost", type=int, default=None,
                        metavar="N",
                        help="sensitivity sweep: fixed per-thread "
                             "squash cost (default 0)")
    parser.add_argument("--promote-cost", type=int, default=None,
                        metavar="N",
                        help="sensitivity sweep: fixed promotion cost "
                             "(default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="tracer processes (default 1: sequential)")
    parser.add_argument("--cache-dir", default=default_cache_dir(),
                        help="on-disk trace cache (default %(default)s)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk trace cache")
    parser.add_argument("--profile-run", type=int, nargs="?", const=25,
                        default=None, metavar="N",
                        help="run the analysis under cProfile and "
                             "print the top N functions by cumulative "
                             "time after the results (default N: 25)")
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help="write a run manifest to PATH (summary "
                             "JSON; span/counter events stream to "
                             "PATH with a .jsonl suffix)")
    parser.add_argument("--timeline", action="store_true",
                        help="print the per-stage timing breakdown "
                             "after the results")
    parser.add_argument("--format", choices=("text", "csv", "json"),
                        default="text",
                        help="result rendering (default text)")
    parser.add_argument("--output-dir", default=None, metavar="DIR",
                        help="write one file per result table into DIR "
                             "instead of printing tables to stdout")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and workloads")
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("available experiments:")
        for name in EXPERIMENTS:
            print("  %s" % name)
        print("available workloads:")
        for name in SUITE_ORDER:
            print("  %s" % name)
        from repro.workloads.synthetic import profile_names
        print("synthetic profiles (--profile, or workloads "
              "synth-<profile>-<seed>):")
        for name in profile_names():
            print("  %s" % name)
        from repro.timing import timing_names
        print("timing models (--timing name[:k=v,...]):")
        for name in timing_names():
            print("  %s" % name)
        return 0

    try:
        selected = select_experiments(args.experiments, experiments,
                                      extras=EXTRA_EXPERIMENTS)
    except ValueError as exc:
        parser.error(str(exc))

    overrides = _sensitivity_overrides(args, selected, parser)
    sweep = _synthetic_sweep(args, selected, parser)
    try:
        config = PipelineConfig(
            scale=args.scale,
            cls_capacity=args.cls_capacity,
            max_instructions=args.max_instructions,
            workloads=(sweep if sweep is not None
                       else _parse_workloads(args.workloads, parser)
                       if args.workloads is not None else None),
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            timing=args.timing,
        )
    except ValueError as exc:
        parser.error(str(exc))

    if args.output_dir is not None:
        os.makedirs(args.output_dir, exist_ok=True)

    if args.profile_run is not None and args.profile_run < 1:
        parser.error("--profile-run expects a positive line count")

    from repro.obs import RunObserver, collector as obs

    observer = RunObserver(
        metrics_path=args.metrics, timeline=args.timeline,
        profile_lines=args.profile_run, argv=["runner"] + list(argv),
        command="run", copy_dirs=(config.cache_dir,))
    with observer:
        with obs.span("setup", experiments=len(selected)):
            session = SimulationSession(config)
            try:
                suite, _ = build_suite(selected, overrides)
            except ValueError as exc:
                parser.error(str(exc))
        start = time.time()
        with observer.profiled():
            with obs.span("analyze"):
                all_results = session.analyze(suite)
        analyze_seconds = time.time() - start
        with obs.span("emit", format=args.format):
            for name, results in zip(selected, all_results):
                if not isinstance(results, list):
                    results = [results]
                _emit(name, results, args.format, args.output_dir)
                # All experiments share the single replay, so
                # per-experiment wall time no longer exists; the total
                # is reported below.
                print("[%s done]" % name)
                print()
        print("[%d experiment(s), %d workload(s), %d replay(s), "
              "analyzed in %.1fs]"
              % (len(selected), len(session.workloads),
                 session.stats.replays, analyze_seconds))
        observer.record_session(session)
    observer.finalize(extra_meta={
        "experiments": list(selected),
        "analyze_seconds": round(analyze_seconds, 3)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
