"""Fused-engine throughput against per-config simulation.

Written to ``BENCH_engine.json`` at the repository root (override with
``--output``): every benchmark workload is priced over a (policy x TU
count x timing) grid twice -- N independent
:func:`~repro.core.speculation.engine.simulate` calls, then one
:func:`~repro.core.speculation.grid.simulate_grid` call -- with the
results compared config by config (``mismatches`` must be 0) and cell
throughput recorded for both.  The committed gate
(``tools/bench_check.py --engine``) requires the fused speedup to
stay above 3x.

Run::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --workloads swim,go
"""

import argparse
import itertools
import json
import os
import sys
import time

from repro.core.speculation.engine import simulate
from repro.core.speculation.grid import simulate_grid
from repro.pipeline.session import SimulationSession

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DEFAULT_WORKLOADS = ("applu", "go", "gcc", "tomcatv")

#: The per-workload configuration grid: the sensitivity sweep's shape
#: (the paper's three summary policies, the TU axis, and the ideal leg
#: plus the spawn-cost overhead legs a real sensitivity run prices).
POLICIES = ("idle", "str", "str(3)")
TU_COUNTS = (1, 2, 4, 8)
TIMINGS = (None, "overhead:spawn=0", "overhead:spawn=2",
           "overhead:spawn=8", "overhead:spawn=8,squash=4,promote=1")


def bench_fused(workloads):
    session = SimulationSession(cache_dir=None, workloads=workloads)
    indexes = {name: session.index(name) for name in workloads}
    configs = [(tus, policy, timing) for policy, tus, timing in
               itertools.product(POLICIES, TU_COUNTS, TIMINGS)]

    start = time.perf_counter()
    per_config = {
        name: [simulate(indexes[name], num_tus=tus, policy=policy,
                        name=name, timing=timing)
               for tus, policy, timing in configs]
        for name in workloads}
    per_config_s = time.perf_counter() - start

    start = time.perf_counter()
    fused = {name: simulate_grid(indexes[name], configs, name=name)
             for name in workloads}
    fused_s = time.perf_counter() - start

    mismatches = sum(
        1 for name in workloads
        for ref, got in zip(per_config[name], fused[name])
        if ref.state() != got.state())
    cells = len(configs) * len(workloads)
    return {
        "workloads": list(workloads),
        "configs_per_workload": len(configs),
        "cells": cells,
        "mismatches": mismatches,
        "per_config": {
            "seconds": round(per_config_s, 3),
            "cells_per_second": round(cells / per_config_s, 1)
            if per_config_s else 0.0,
        },
        "grid": {
            "seconds": round(fused_s, 3),
            "cells_per_second": round(cells / fused_s, 1)
            if fused_s else 0.0,
        },
        "speedup": round(per_config_s / fused_s, 2)
        if fused_s else 0.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark the fused grid engine against "
                    "per-config simulation.")
    parser.add_argument("--workloads",
                        default=",".join(DEFAULT_WORKLOADS),
                        metavar="A,B,...")
    parser.add_argument("--output",
                        default=os.path.join(REPO_ROOT,
                                             "BENCH_engine.json"),
                        help="result file (default %(default)s)")
    args = parser.parse_args(argv)

    workloads = tuple(w.strip() for w in args.workloads.split(",")
                      if w.strip())
    results = {
        "benchmark": "fused grid engine vs per-config simulate",
        "cpu_count": os.cpu_count() or 1,
        "fused": bench_fused(workloads),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(json.dumps(results, indent=2))
    print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
