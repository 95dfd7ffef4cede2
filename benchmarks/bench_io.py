"""Trace IO throughput, and the columnar-pipeline payoff.

Two measurements, written to ``BENCH_io.json`` at the repository root:

* **v3 serialization throughput** — write and read real workload
  traces the way the pipeline does (record-batch columns in, columns
  out), reporting wall time, records/second and bytes for each.  v3 is
  the only format written; v1/v2 are read-only legacy formats.
* **Warm-cache `runner all`** — the full ten-experiment single-pass
  suite over a warm trace cache (the same harness as
  ``benchmarks/bench_analysis.py``), compared against the pre-columnar
  single-pass baseline recorded in ``BENCH_analysis.json``.  Each
  timed round starts from an empty derived store, so it replays every
  workload once; ``lookup_seconds`` then times the same suite over
  the filled store, a lookup that walks no trace.

Run::

    PYTHONPATH=src python benchmarks/bench_io.py
    PYTHONPATH=src python benchmarks/bench_io.py \
        --workloads swim,go --max-instructions 200000 --rounds 1
"""

import argparse
import io
import json
import os
import shutil
import sys
import tempfile
import time

from repro.cpu import ChunkedCFTracer
from repro.experiments.runner import EXPERIMENT_ORDER, build_suite
from repro.pipeline import PipelineConfig, SimulationSession
from repro.trace import dump_cf_batches, loads_cf_batches
from repro.workloads import get

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Workloads whose traces the format benchmark (de)serializes.
FORMAT_WORKLOADS = ("compress", "gcc", "swim")
FORMAT_LIMIT = 400_000


def best(rounds, fn):
    result = None
    for _ in range(rounds):
        elapsed = fn()
        if result is None or elapsed < result:
            result = elapsed
    return result


def _dumps(header, batches):
    buf = io.BytesIO()
    dump_cf_batches(header, batches, buf)
    return buf.getvalue()


def bench_formats(workload_names, limit, rounds):
    """v3 write/read wall time over real traces."""
    traces = [ChunkedCFTracer(get(name).program(1), limit).columns()
              for name in workload_names]
    records = sum(header.records for header, _ in traces)

    def write_all():
        start = time.perf_counter()
        for header, batches in traces:
            _dumps(header, batches)
        return time.perf_counter() - start

    payloads = [_dumps(header, batches) for header, batches in traces]

    def read_all():
        start = time.perf_counter()
        for payload in payloads:
            loads_cf_batches(payload)
        return time.perf_counter() - start

    write_s = best(rounds, write_all)
    read_s = best(rounds, read_all)
    return {
        "records": records,
        "v3": {
            "write_seconds": round(write_s, 4),
            "read_seconds": round(read_s, 4),
            "write_records_per_second": int(records / write_s)
            if write_s else None,
            "read_records_per_second": int(records / read_s)
            if read_s else None,
            "bytes": sum(len(p) for p in payloads),
        },
    }


def run_single_pass(cache_dir, workloads, max_instructions):
    """All experiments in one suite over a warm cache; returns
    ``(seconds, trace walks)``."""
    session = SimulationSession(PipelineConfig(
        workloads=workloads, max_instructions=max_instructions,
        cache_dir=cache_dir))
    suite, _ = build_suite(list(EXPERIMENT_ORDER))
    start = time.perf_counter()
    session.analyze(suite)
    return time.perf_counter() - start, session.stats.replays


def bench_warm_runner_all(workloads, max_instructions, rounds):
    cache_dir = tempfile.mkdtemp(prefix="bench-io-cache-")
    try:
        warm = SimulationSession(PipelineConfig(
            workloads=workloads, max_instructions=max_instructions,
            cache_dir=cache_dir))
        warm.ensure_traced()
        count = len(warm.workloads)
        cache_bytes = sum(
            os.path.getsize(os.path.join(cache_dir, entry))
            for entry in os.listdir(cache_dir))
        del warm

        def replay():
            # An empty derived store: one replay per workload, the
            # shape of a second `runner all` before results are stored.
            shutil.rmtree(os.path.join(cache_dir, "derived"),
                          ignore_errors=True)
            elapsed, replays = run_single_pass(cache_dir, workloads,
                                               max_instructions)
            assert replays == count
            return elapsed

        def lookup():
            # The derived store the last replay filled: no trace walk.
            elapsed, replays = run_single_pass(cache_dir, workloads,
                                               max_instructions)
            assert replays == 0
            return elapsed

        seconds = best(rounds, replay)
        lookup_seconds = best(rounds, lookup)
        return seconds, count, lookup_seconds, cache_bytes
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def load_baseline():
    """The pre-columnar single-pass wall time from BENCH_analysis.json
    (full suite, default budgets), if present."""
    path = os.path.join(REPO_ROOT, "BENCH_analysis.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return data["single_pass"]["seconds"]
    except (OSError, KeyError, ValueError):
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark v3 trace IO and the warm pipeline.")
    parser.add_argument("--workloads", default=None, metavar="A,B,...",
                        help="workload subset for the warm runner-all "
                             "measurement (default: full suite)")
    parser.add_argument("--max-instructions", type=int, default=None,
                        help="per-workload instruction budget override")
    parser.add_argument("--rounds", type=int, default=2,
                        help="rounds per measurement; best is kept "
                             "(default %(default)s)")
    parser.add_argument("--format-limit", type=int,
                        default=FORMAT_LIMIT,
                        help="instruction budget for the format "
                             "throughput traces (default %(default)s)")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT, "BENCH_io.json"),
                        help="result file (default %(default)s)")
    args = parser.parse_args(argv)
    workloads = (tuple(args.workloads.split(","))
                 if args.workloads else None)

    formats = bench_formats(FORMAT_WORKLOADS, args.format_limit,
                            args.rounds)
    warm_seconds, replays, lookup_seconds, cache_bytes = \
        bench_warm_runner_all(workloads, args.max_instructions,
                              args.rounds)

    baseline = load_baseline() if workloads is None \
        and args.max_instructions is None else None
    results = {
        "benchmark": "v3 trace IO + warm columnar runner all",
        "formats": formats,
        "warm_runner_all": {
            "experiments": list(EXPERIMENT_ORDER),
            "workloads": list(workloads) if workloads else "full suite",
            "max_instructions": args.max_instructions,
            "rounds": args.rounds,
            "seconds": round(warm_seconds, 3),
            "replays": replays,
            "lookup_seconds": round(lookup_seconds, 3),
            "cache_bytes": cache_bytes,
            "baseline_single_pass_seconds": baseline,
            "speedup_vs_baseline": round(baseline / warm_seconds, 2)
            if baseline else None,
        },
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(json.dumps(results, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
