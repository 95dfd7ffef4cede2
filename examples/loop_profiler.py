"""Loop profiler: per-loop behaviour of a workload.

Shows how to write a *custom* analysis: a per-loop profile pass that
folds in each loop execution of the workload's index at its end row,
reading the rest off its start row, registered alongside the stock
loop-statistics pass so both share one trace walk through
``SimulationSession.analyze`` -- the per-loop view behind the paper's
Table 1 aggregates.

Run:  python examples/loop_profiler.py [workload] [scale]
      python examples/loop_profiler.py compress
"""

import sys
from collections import defaultdict

from repro.analysis import Analysis, AnalysisSuite, LoopStatisticsPass
from repro.core.events import EV_EXEC_END, EV_SINGLE
from repro.pipeline import SimulationSession
from repro.util.fmt import format_table
from repro.workloads import names


class PerLoopProfile(Analysis):
    """Executions, iterations, instructions and depth per static loop."""

    def __init__(self):
        self.per_loop = None

    def finish(self, ctx):
        self.per_loop = defaultdict(lambda: {
            "executions": 0, "iterations": 0, "instructions": 0,
            "depth_max": 0})
        cols = ctx.index.columns
        # Fold each execution in at its end row, in stream order.  Its
        # start row holds its loop, start seq and depth; the end row its
        # end seq and iteration count (an execution end's aux; a single
        # iteration starts and ends on one row).
        for end, (etype, exec_id) in enumerate(zip(cols.etypes,
                                                   cols.exec_ids)):
            if etype != EV_EXEC_END and etype != EV_SINGLE:
                continue
            start = cols.start_rows[exec_id]
            entry = self.per_loop[cols.loops[start]]
            entry["executions"] += 1
            entry["iterations"] += \
                cols.auxs[end] if etype == EV_EXEC_END else 1
            # Its detected iterations run from its start to its end.
            entry["instructions"] += cols.seqs[end] - cols.seqs[start]
            entry["depth_max"] = max(entry["depth_max"], cols.auxs[start])

    def result(self):
        return dict(self.per_loop)


def profile(workload_name, scale=1):
    session = SimulationSession(workloads=(workload_name,), scale=scale,
                                cache_dir=None)
    suite = AnalysisSuite()
    profile_pass = suite.add(PerLoopProfile())
    stats_pass = suite.add(LoopStatisticsPass())
    session.analyze(suite)

    rows = []
    for loop, entry in sorted(profile_pass.result().items(),
                              key=lambda kv: -kv[1]["instructions"]):
        iters = entry["iterations"]
        rows.append((
            "pc=%d" % loop,
            entry["executions"],
            round(iters / entry["executions"], 2),
            round(entry["instructions"] / iters, 1) if iters else 0.0,
            entry["depth_max"],
        ))

    stats = stats_pass.by_name[workload_name]
    print(format_table(
        ("loop", "#exec", "#iter/exec", "#instr/iter", "max depth"),
        rows[:15],
        title="%s: hottest loops (of %d static loops, %d instructions)"
              % (workload_name, stats.static_loops,
                 stats.total_instructions)))
    print()
    print("suite-level row (Table 1 format):")
    print(format_table(stats.ROW_HEADERS, [stats.as_row()]))


def main(argv):
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__)
        print("workloads: %s" % ", ".join(names()))
        return 0
    workload = argv[0] if argv else "compress"
    scale = int(argv[1]) if len(argv) > 1 else 1
    profile(workload, scale)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
