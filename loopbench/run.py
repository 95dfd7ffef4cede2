"""The loop-speculation simulator's benchmark: one command per workload.

Run from the repository root::

    python3 loopbench/run.py --workload paper-warm --seed 1 --seconds 15 --trace 0
    python3 loopbench/run.py --workload search --seed 3 --seconds 15 --trace 1
    python3 loopbench/run.py --workload paper-cold --seed 1 --seconds 1 \\
        --trace 0 --write-digests        # re-pin loopbench/digests.json

Workloads (see ``workloads.py``): ``paper-cold``, ``paper-warm``,
``sweep-grid`` and ``search``.  A run repeats the workload's setup
:data:`SETUP_REPEATS` times and primes its caches once, then runs
timed passes for about ``--seconds`` (at least one; another starts
only if half of it still fits), checking every pass's outputs.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it (prefixed ``#``)
record the host and, for ``paper-cold``, the Table 1 fidelity against
the paper.

End-to-end metrics (medians over a run's passes, tracing off).  Times
are host seconds scaled to a nominal host speed: every 50 ms the run
times a fixed reference loop off the pass clock (``workloads.Run``),
because the shared host's speed swings by more than the bounds.  The
``#`` line keeps the raw pass walls and each pass's scale factor.

* ``wall_s`` -- host seconds per pass;
* ``setup_s`` -- imports, the median setup (compiling and
  fingerprinting the analogs) and the cache priming of
  paper-warm (a cold pass) and sweep-grid (tracing);
* ``peak_rss_mb`` -- peak resident memory of the run;
* ``ok_frac`` -- passed / attempted checks (experiment tables, sweep
  cells, candidates, digests); ``1 - fail_frac``, so it is never 0;
* ``sim_mips`` -- simulated instructions (traces analysed in the pass)
  per host second;
* ``programs_per_s`` -- programs finished per host second: an analog
  on paper-* and sweep-grid (each a group of 96 cells), an evaluated
  candidate on search (memo hits excluded).

Per-program latency is printed on the ``#`` line, not gated: the
median and the highest percentile that still has ten samples beyond
it, with the sample count.  Over the 18 unequal analogs of one pass
the median jumps between neighbouring analogs, too unsteady to gate.

Inputs are fixed: paper-* and sweep-grid have no random inputs, and
search walks pinned seeds, because a climb's cost follows the programs
its trajectory generates.  ``--seed`` is recorded, not used.  The
command re-executes itself with ``PYTHONHASHSEED=0``, so string hashing
is the same in every run too.

With ``--trace 1`` one untraced pass runs first (the baseline of
``tracing.overhead_s``), then traced passes: :mod:`layers` wraps every
layer's entry points from outside ``src/`` and reports self time
(scaled like the end-to-end times) and counts per pass.  The model is not validated against hardware; Table 1
is the only reference.
"""

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")

#: Setup repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3

#: Environment variables that would redirect or change the program.
HERMETIC_ENV = ("REPRO_TRACE_CACHE", "REPRO_SWEEP_STORE",
                "REPRO_NO_NUMPY", "REPRO_FUZZ_SEED")

#: Tail percentiles tried, highest first (see :func:`tail_percentile`).
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"), ("sim_mips", "Minstr/s"),
    ("programs_per_s", "1/s"),
)


def tail_percentile(count, beyond=10):
    """The highest of :data:`PERCENTILES` that leaves at least *beyond*
    of *count* samples above it, or ``None``."""
    for pct in PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= beyond:
            return pct
    return None


def percentile(values, pct):
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _commit():
    """The checked-out commit, read from ``.git`` without running git
    (``None`` outside a git checkout)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"),
                      encoding="ascii") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def host_record():
    """What makes timings host-specific (cross-host numbers are
    advisory)."""
    from repro.trace import kernels

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "kernels_backend": kernels.backend(), "commit": _commit()}


def fidelity(table1):
    """Table 1 per analog next to the paper's (iterations/execution,
    average and maximum nesting); informational, not gated."""
    path = os.path.join(ROOT, "tests", "test_paper_bands.py")
    spec = importlib.util.spec_from_file_location("paper_bands", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    index = {h: i for i, h in enumerate(table1.headers)}
    out = {}
    for row in table1.rows:
        paper = module.PAPER_TABLE1.get(row[0])
        if paper is None:
            continue
        out[row[0]] = {
            "iter_per_exec": [row[index["#iter/exec"]], paper[0]],
            "avg_nesting": [row[index["avg. nl"]], paper[1]],
            "max_nesting": [row[index["max. nl"]], paper[2]],
        }
    return {"reference": "paper Table 1 (tests/test_paper_bands.py)",
            "note": "the model is not validated against hardware; "
                    "values are [measured, paper]",
            "analogs": out}


def _layer_values(passes, scales, baseline_wall):
    """Per-layer metrics per pass from the traced passes' spans; times
    are scaled to the nominal host by each pass's factor in *scales*,
    like *baseline_wall* (the untraced pass)."""
    from layers import GLUE, LAYER_METRICS, self_times, time_metric

    n = len(passes)
    totals = {}
    counts = {}
    attributed = 0.0
    for (result, spans, pass_counts), scale in zip(passes, scales):
        # Spans after result.end are the benchmark's own output checks.
        for name, seconds in self_times(spans, result.start,
                                        result.end).items():
            totals[name] = totals.get(name, 0.0) + seconds * scale
            if name not in GLUE:
                attributed += seconds * scale
        for name, value in pass_counts.items():
            counts[name] = counts.get(name, 0) + value
    wall = sum(result.wall * scale
               for (result, _, _), scale in zip(passes, scales))
    values = {}
    for name, _, _ in LAYER_METRICS:
        values[name] = counts.get(name, 0) / n
    for layer, seconds in totals.items():
        metric = time_metric(layer)
        if metric in values:
            values[metric] = seconds / n
    values["spec.fused_cells"] = (counts.get("spec.grid_configs", 0)
                                  - counts.get("spec.fallback_cells", 0)) / n
    lookups = (counts.get("pipeline.derived_hits", 0)
               + counts.get("pipeline.derived_misses", 0))
    values["pipeline.derived_hit_ratio"] = (
        counts.get("pipeline.derived_hits", 0) / lookups if lookups else 0.0)
    values["layers.unattributed_s"] = (wall - attributed) / n
    values["layers.coverage"] = attributed / wall if wall else 0.0
    values["tracing.overhead_s"] = passes[0][0].wall * scales[0] \
        - baseline_wall
    return values


def measure(workload, seed, seconds, trace, settings=None, import_s=0.0,
            expected=None, scratch=None):
    """Run one workload; returns ``(result, meta, observed digests)``.

    *result* is the final-line JSON object, *meta* the ``#`` line data.
    """
    from workloads import WORKLOADS, Run, Settings, host_scale
    import layers

    settings = settings or Settings()
    root = scratch or tempfile.mkdtemp(prefix="run-", dir=_scratch_root())
    run = Run(root, settings, expected or {})
    bench = WORKLOADS[workload](run)
    meta = {"workload": workload, "seed": seed}
    try:
        run.sampling_start()
        run.sample()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            start = run.clock()
            bench.setup()
            setup_times.append(run.clock() - start)
        start = run.clock()
        attempted, failed = bench.prime()
        prime_s = run.clock() - start
        run.sample()
        setup_scale = host_scale(run.ref_times)

        results = []
        samples = []
        traced = []
        baseline = None
        tracer = layers.Tracer(clock=run.clock) if trace else None
        begin = time.perf_counter()
        while True:
            gc.collect()
            first = len(run.ref_times)
            if tracer is None or baseline is None:
                result = bench.run_pass()
                if tracer is not None:
                    baseline = result
                    begin = time.perf_counter()
            else:
                tracer.reset()
                undo = layers.install(tracer, _experiment_classes())
                try:
                    result = bench.run_pass()
                finally:
                    undo()
                traced.append((result, tracer.spans,
                               dict(tracer.counts, **{
                                   "pipeline.cache_hits": sum(
                                       s.cache_hits
                                       for s in tracer.sessions)})))
            attempted += result.attempted
            failed += result.failed
            results.append(result)
            samples.append(run.ref_times[first:])
            # Start another pass only if at least half of it fits.
            if (tracer is None or traced) and time.perf_counter() - begin \
                    + result.wall / 2 >= seconds:
                break
    finally:
        run.sampling_stop()
        bench.close()
        if scratch is None:
            shutil.rmtree(root, ignore_errors=True)

    timed = [r for r, _, _ in traced] if trace else results
    gaps = [g for r in timed for g in r.gaps()]
    meta["pass_walls"] = [r.wall for r in results]
    scales = [host_scale(s or run.ref_times) for s in samples]
    meta["host_scales"] = scales
    latency = {"samples": len(gaps), "p50": percentile(gaps, 50.0) * 1e3}
    tail = tail_percentile(len(gaps))
    if tail is not None:
        latency["p%g" % tail] = percentile(gaps, tail) * 1e3
    meta["program_ms"] = latency
    if workload == "paper-cold" and results[0].table1 is not None \
            and settings.pinned:
        meta["fidelity"] = fidelity(results[0].table1)

    if trace:
        values = _layer_values(traced, scales[1:],
                               baseline.wall * scales[0])
        values["fail_frac"] = failed / attempted
        from layers import LAYER_METRICS
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        walls = [r.wall * s for r, s in zip(results, scales)]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": (import_s + prime_s + statistics.median(setup_times))
            * setup_scale,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
            "sim_mips": statistics.median(
                r.instructions / w / 1e6 for r, w in zip(results, walls)),
            "programs_per_s": len(gaps) / sum(walls),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, meta, run.observed


def _experiment_classes():
    from repro.experiments.runner import EXPERIMENT_ORDER, build_suite

    _, by_name = build_suite(list(EXPERIMENT_ORDER))
    return {name: type(analysis) for name, analysis in by_name.items()}


def _scratch_root():
    path = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(path, exist_ok=True)
    return path


def _import_program():
    """Import every ``repro`` module the workloads and tracer touch;
    returns the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import repro.experiments.runner as runner
    import repro.search.cli  # noqa: F401
    import repro.search.loop  # noqa: F401
    import repro.sweep.query  # noqa: F401
    import repro.workloads.synthetic  # noqa: F401
    runner.available_experiments()
    return time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "paper-warm", "sweep-grid",
                                 "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="pin this run's output digests into "
                             "digests.json instead of checking them")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("error: %s has no src/repro; run from a checkout of the "
              "repository" % ROOT, file=sys.stderr)
        return 2
    for name in HERMETIC_ENV:
        os.environ.pop(name, None)
    # String hashes are salted per process, which moves dict and set
    # layouts and the simulator's speed by several percent between runs
    # (paper-warm wall_s: IQR/median 0.12 salted, 0.025 fixed); fix the
    # salt so that runs differ only by the host.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, sys.orig_argv)
    tempfile.tempdir = _scratch_root()
    sys.path.insert(0, HERE)
    import_s = _import_program()

    expected = {}
    if not args.write_digests:
        with open(DIGESTS, encoding="utf-8") as fh:
            expected = json.load(fh)
    result, meta, observed = measure(
        args.workload, args.seed, args.seconds, args.trace,
        import_s=import_s, expected=expected)
    if args.write_digests:
        pinned = {}
        if os.path.exists(DIGESTS):
            with open(DIGESTS, encoding="utf-8") as fh:
                pinned = json.load(fh)
        pinned.update(observed)
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print("# host " + json.dumps(host_record(), sort_keys=True))
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
