"""li-analog: a Lisp interpreter over cons cells.

SPEC95 ``li`` (xlisp): recursion-dominated with short loops (~3.5
iterations per execution) but deep dynamic nesting (5.2 avg, 10 max) --
loops inside recursive evaluator activations stack up in the CLS.  The
analog builds cons-cell lists in a heap (car/cdr arrays) and runs
recursive list routines (sum, map, reverse-append, deep tree fold) whose
activations contain small walking loops.
"""

from repro.lang import (
    Assign,
    CallExpr,
    For,
    If,
    Index,
    Module,
    Return,
    Store,
    Var,
    While,
)
from repro.workloads.base import register
from repro.workloads.common import table_init

HEAP = 4096          # cons cells
NIL = 0              # cell 0 is reserved as nil


@register("li", "Lisp interpreter; recursion with embedded short loops, "
          "deep CLS nesting", "int")
def build(scale=1):
    m = Module("li")
    m.array("car", HEAP)
    m.array("cdr", HEAP)
    m.array("seeds", 64, init=table_init(64, seed=139, low=1, high=50))
    m.scalar("hp", 1)            # heap pointer (0 = nil)
    m.scalar("allocs", 0)

    m.function("cons", ["a", "d"], [
        If(Var("hp") >= HEAP, [Assign("hp", 1)]),   # crude wraparound GC
        Store("car", Var("hp"), Var("a")),
        Store("cdr", Var("hp"), Var("d")),
        Assign("hp", Var("hp") + 1),
        Assign("allocs", Var("allocs") + 1),
        Return(Var("hp") - 1),
    ])

    # build_list(n, seed): list of n pseudo-random ints.
    m.function("build_list", ["n", "seed"], [
        Assign("lst", NIL),
        Assign("k", 0),
        While(Var("k") < Var("n"), [
            Assign("lst", CallExpr(
                "cons", Index("seeds", (Var("seed") + Var("k")) % 64),
                Var("lst"))),
            Assign("k", Var("k") + 1),
        ]),
        Return(Var("lst")),
    ])

    # Recursive sum over a list.
    m.function("sum_list", ["lst"], [
        If(Var("lst").eq(NIL), [Return(0)]),
        Return(Index("car", Var("lst"))
               + CallExpr("sum_list", Index("cdr", Var("lst")))),
    ])

    # Recursive map (x -> x*x % 97), building a fresh list.
    m.function("map_square", ["lst"], [
        If(Var("lst").eq(NIL), [Return(NIL)]),
        Return(CallExpr(
            "cons",
            (Index("car", Var("lst")) * Index("car", Var("lst"))) % 97,
            CallExpr("map_square", Index("cdr", Var("lst"))))),
    ])

    # Iterative length (a small loop inside recursive callers).
    m.function("length", ["lst"], [
        Assign("n", 0),
        While(Var("lst").ne(NIL), [
            Assign("n", Var("n") + 1),
            Assign("lst", Index("cdr", Var("lst"))),
        ]),
        Return(Var("n")),
    ])

    # Deep fold over a tree of lists: each evaluator level is a distinct
    # routine (as xlisp's eval/evlist/apply tower is), so each level's
    # walking loop is a distinct static loop and the levels *stack* in
    # the CLS while the recursion is live -- li's deep-nesting signature.
    FOLD_DEPTH = 4

    def fold_body(level):
        if level >= FOLD_DEPTH:
            return [Return(CallExpr("sum_list",
                                    CallExpr("build_list", 3,
                                             Var("seed"))))]
        return [
            Assign("lst", CallExpr("build_list", 2 + Var("seed") % 2,
                                   Var("seed"))),
            Assign("acc", 0),
            While(Var("lst").ne(NIL), [
                # Recursing *inside* the walking loop keeps this level's
                # loop open in the CLS while deeper levels run.
                Assign("acc", Var("acc") + Index("car", Var("lst"))
                       + CallExpr("fold%d" % (level + 1),
                                  Var("seed") * 3 + Var("acc") % 5)),
                Assign("lst", Index("cdr", Var("lst"))),
            ]),
            Return(Var("acc") % 99991),
        ]

    for level in range(FOLD_DEPTH, -1, -1):
        m.function("fold%d" % level, ["seed"], fold_body(level))

    # Mark-sweep-style pass: a mark scan and a sweep with an inner
    # free-chain compaction loop (xlisp's GC shape).
    m.function("gc", [], [
        Assign("marked", 0),
        For("c", 1, HEAP // 8, [
            If(Index("cdr", Var("c")).ne(NIL),
               [Assign("marked", Var("marked") + 1)]),
        ]),
        Assign("freed", 0),
        Assign("c", 1),
        While(Var("c") < HEAP // 8, [
            If(Index("cdr", Var("c")).eq(NIL), [
                # Chain of consecutive free cells.
                While((Var("c") < HEAP // 8).ne(0)
                      & Index("cdr", Var("c")).eq(NIL), [
                    Assign("freed", Var("freed") + 1),
                    Assign("c", Var("c") + 1),
                ]),
            ], [Assign("c", Var("c") + 1)]),
        ]),
        Return(Var("marked") + Var("freed")),
    ])

    m.function("main", [], [
        Assign("total", 0),
        For("round_", 0, 10 * scale, [
            Assign("lst", CallExpr("build_list", 12, Var("round_"))),
            Assign("sq", CallExpr("map_square", Var("lst"))),
            Assign("total", Var("total") + CallExpr("sum_list", Var("sq"))
                   + CallExpr("length", Var("sq"))),
            Assign("total", Var("total")
                   + CallExpr("fold0", Var("round_") + 1)),
            Assign("total", Var("total") + CallExpr("gc")),
        ]),
        Return(Var("total") % 100003),
    ])
    return m
