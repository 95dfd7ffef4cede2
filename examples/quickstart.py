"""Quickstart: detect loops and speculate threads on a tiny program.

Builds a small program with the mini-language, traces it, and runs the
whole paper pipeline -- loop statistics (the CLS detector) and thread
control speculation on 2/4/8-context machines -- as composable analysis
passes over ONE replay of the trace (`repro.analysis`).

Run:  python examples/quickstart.py
"""

from repro.analysis import LoopStatisticsPass, SpeculationPass, \
    analyze_trace
from repro.cpu import trace_control_flow
from repro.lang import For, Index, Module, Return, Store, Var, compile_module

TU_COUNTS = (2, 4, 8)


def build_program():
    """A 2D relaxation: outer loop of 20 sweeps over a 64-cell grid."""
    m = Module("quickstart")
    m.array("grid", 64, init=[(7 * i) % 31 for i in range(64)])
    i = Var("i")
    m.function("main", [], [
        For("sweep", 0, 20, [
            For("i", 1, 63, [
                Store("grid", i,
                      (Index("grid", i - 1) + Index("grid", i) * 2
                       + Index("grid", i + 1)) // 4),
            ]),
        ]),
        Return(Index("grid", 32)),
    ])
    return compile_module(m)


def main():
    program = build_program()
    print("compiled %d instructions" % len(program))

    # 1. Trace execution (stands in for the paper's ATOM instrumentation).
    trace = trace_control_flow(program)
    print("executed %d instructions (%d control transfers)"
          % (trace.total_instructions, trace.header.records))

    # 2. One streaming replay feeds every pass: loop detection with a
    #    16-entry CLS (paper section 2) and thread control speculation
    #    (section 3) under the STR policy at three machine sizes.
    passes = [LoopStatisticsPass()] + \
        [SpeculationPass(num_tus=tus, policy="str") for tus in TU_COUNTS]
    results = analyze_trace(passes, trace, name="quickstart",
                            cls_capacity=16)

    stats = results[0]["quickstart"]
    print("detected %d static loops, %d executions, "
          "%.1f iterations/execution"
          % (stats.static_loops, stats.executions,
             stats.iterations_per_execution))

    for tus, by_name in zip(TU_COUNTS, results[1:]):
        result = by_name["quickstart"]
        print("%2d TUs: TPC %.2f  hit ratio %5.1f%%  (%d speculations)"
              % (tus, result.tpc, 100 * result.hit_ratio,
                 result.speculation_events))


if __name__ == "__main__":
    main()
