"""Single-pass vs per-experiment replay wall time for ``runner all``.

Measures, on a warm trace cache, the cost of running every experiment

* the redesigned way: ONE ``SimulationSession.analyze`` over a suite
  containing all ten experiment analyses (one record-stream replay per
  workload), and
* the seed way: every experiment on its own, in a fresh session over
  an empty derived store, emulating the old
  every-experiment-calls-``runner.indexes()`` pattern: nothing is
  shared between experiments, so each one walks every workload it
  needs (E x S walks, less the experiments that read no control-flow
  trace, :data:`TRACE_FREE`).

Each round starts from an empty derived store, so every round replays:
with all results stored a warm run is a lookup that walks nothing.

Writes the numbers to ``BENCH_analysis.json`` at the repository root
(override with ``--output``).  Run::

    PYTHONPATH=src python benchmarks/bench_analysis.py
    PYTHONPATH=src python benchmarks/bench_analysis.py \
        --workloads swim,go,gcc --max-instructions 200000
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from repro.experiments.runner import EXPERIMENT_ORDER, build_suite
from repro.pipeline import PipelineConfig, SimulationSession

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Experiments whose results need no control-flow trace walk (figure8
#: runs its own full-effects tracer), so on their own they walk nothing.
TRACE_FREE = ("figure8",)


def make_session(cache_dir, workloads, max_instructions):
    return SimulationSession(PipelineConfig(
        workloads=workloads, max_instructions=max_instructions,
        cache_dir=cache_dir))


def clear_derived(cache_dir):
    """Drop the derived store so the next round replays every trace
    (with every result stored, a warm run is a lookup that walks
    nothing)."""
    shutil.rmtree(os.path.join(cache_dir, "derived"), ignore_errors=True)


def run_single_pass(cache_dir, workloads, max_instructions):
    """All experiments in one suite: one replay per workload."""
    clear_derived(cache_dir)
    session = make_session(cache_dir, workloads, max_instructions)
    suite, _ = build_suite(list(EXPERIMENT_ORDER))
    start = time.perf_counter()
    session.analyze(suite)
    elapsed = time.perf_counter() - start
    assert session.stats.replays == len(session.workloads)
    return elapsed, session.stats.replays


def run_per_experiment(cache_dir, workloads, max_instructions):
    """The seed shape: every experiment walks every workload it needs,
    sharing no walk and no stored result with the others."""
    elapsed = 0.0
    replays = 0
    for name in EXPERIMENT_ORDER:
        clear_derived(cache_dir)
        session = make_session(cache_dir, workloads, max_instructions)
        suite, _ = build_suite([name])
        start = time.perf_counter()
        session.analyze(suite)
        elapsed += time.perf_counter() - start
        expected = 0 if name in TRACE_FREE else len(session.workloads)
        assert session.stats.replays == expected, (name, expected)
        replays += session.stats.replays
    return elapsed, replays


def best_of(rounds, fn, *args):
    """Best (minimum) wall time over *rounds* runs — the standard way
    to suppress scheduler/turbo noise in a wall-clock benchmark."""
    best = None
    detail = None
    for _ in range(rounds):
        elapsed, replays = fn(*args)
        if best is None or elapsed < best:
            best, detail = elapsed, replays
    return best, detail


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark single-pass vs per-experiment analysis.")
    parser.add_argument("--workloads", default=None, metavar="A,B,...",
                        help="workload subset (default: full suite)")
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="per-workload instruction budget override")
    parser.add_argument("--rounds", type=int, default=2,
                        help="rounds per variant; best is kept "
                             "(default %(default)s)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_analysis.json"),
                        help="result file (default %(default)s)")
    args = parser.parse_args(argv)
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else None)

    cache_dir = tempfile.mkdtemp(prefix="bench-analysis-cache-")
    try:
        # Warm the cache once so both measurements replay from disk,
        # exactly like a second `runner all` invocation.
        warm = make_session(cache_dir, workloads, args.max_instructions)
        warm.ensure_traced()
        del warm

        single_seconds, single_replays = best_of(
            args.rounds, run_single_pass, cache_dir, workloads,
            args.max_instructions)
        per_exp_seconds, per_exp_replays = best_of(
            args.rounds, run_per_experiment, cache_dir, workloads,
            args.max_instructions)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    speedup = per_exp_seconds / single_seconds if single_seconds else 0.0
    results = {
        "benchmark": "runner all, warm trace cache",
        "experiments": list(EXPERIMENT_ORDER),
        "workloads": list(workloads) if workloads else "full suite",
        "max_instructions": args.max_instructions,
        "rounds": args.rounds,
        "single_pass": {
            "seconds": round(single_seconds, 3),
            "replays": single_replays,
        },
        "per_experiment": {
            "seconds": round(per_exp_seconds, 3),
            "replays": per_exp_replays,
        },
        "speedup": round(speedup, 2),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(json.dumps(results, indent=2))
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
