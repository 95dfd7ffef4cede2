"""mgrid-analog: multigrid V-cycles.

SPEC95 ``mgrid``: ~29 iterations per execution, nesting ~5 (max 6),
large iteration bodies.  The analog runs V-cycles over a three-level
1D grid hierarchy (fine 32, mid 16, coarse 8): relaxation sweeps per
level, restriction down and prolongation up.
"""

from repro.lang import CallExpr, ExprStmt, For, Index, Module, Return, \
    Store, Var
from repro.workloads.base import register
from repro.workloads.common import table_init

FINE, MID, COARSE = 66, 34, 18       # includes boundary cells


@register("mgrid", "multigrid V-cycles; high trip counts on the fine "
          "level, nesting 4-5", "fp")
def build(scale=1):
    m = Module("mgrid")
    m.array("fine", FINE, init=table_init(FINE, seed=61, low=0, high=99))
    m.array("rhs", FINE, init=table_init(FINE, seed=67, low=0, high=20))
    m.array("mid", MID)
    m.array("coarse", COARSE)

    i = Var("i")

    m.function("relax_fine", ["sweeps"], [
        For("s", 0, Var("sweeps"), [
            For("i", 1, FINE - 1, [
                Store("fine", i,
                      (Index("fine", i - 1) + Index("fine", i + 1)
                       + Index("rhs", i) * 2) // 4),
            ]),
        ]),
        Return(0),
    ])
    m.function("restrict_down", [], [
        For("i", 1, MID - 1, [
            Store("mid", i,
                  (Index("fine", i * 2 - 1) + Index("fine", i * 2) * 2
                   + Index("fine", i * 2 + 1)) // 4),
        ]),
        For("i", 1, COARSE - 1, [
            Store("coarse", i,
                  (Index("mid", i * 2 - 1) + Index("mid", i * 2) * 2
                   + Index("mid", i * 2 + 1)) // 4),
        ]),
        Return(0),
    ])
    m.function("solve_coarse", [], [
        For("s", 0, 4, [
            For("i", 1, COARSE - 1, [
                Store("coarse", i,
                      (Index("coarse", i - 1)
                       + Index("coarse", i + 1)) // 2),
            ]),
        ]),
        Return(0),
    ])
    m.function("prolong_up", [], [
        For("i", 1, MID - 1, [
            Store("mid", i,
                  Index("mid", i) + Index("coarse", i // 2)),
        ]),
        For("i", 1, FINE - 1, [
            Store("fine", i,
                  Index("fine", i) + Index("mid", i // 2)),
        ]),
        Return(0),
    ])

    m.function("main", [], [
        For("cycle", 0, 12 * scale, [
            ExprStmt(CallExpr("relax_fine", 2)),
            ExprStmt(CallExpr("restrict_down")),
            ExprStmt(CallExpr("solve_coarse")),
            ExprStmt(CallExpr("prolong_up")),
            ExprStmt(CallExpr("relax_fine", 1)),
        ]),
        Return(Index("fine", FINE // 2)),
    ])
    return m
