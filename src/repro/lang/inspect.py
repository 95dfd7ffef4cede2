"""Static inspection of mini-language modules.

:func:`module_stats` walks a :class:`~repro.lang.ast.Module` and counts
the structural features that determine its dynamic loop behaviour:
static loops, branches, calls, and the maximum *syntactic* loop nesting
depth (per function; cross-function nesting through calls is a dynamic
property the detector measures, not a static one).

The synthetic generator (:mod:`repro.workloads.synthetic`) uses these
counts to assert that an emitted module actually realises its profile
(e.g. at least one nest of the sampled depth exists); tests and
``docs/WORKLOADS.md`` use them to characterize the hand-written analogs.
"""

from repro.lang import ast


class ModuleStats:
    """Static structure counts for one module."""

    __slots__ = ("functions", "loops", "branches", "calls",
                 "max_syntactic_nesting", "call_targets")

    def __init__(self):
        self.functions = 0
        self.loops = 0                   #: For/While/DoWhile statements
        self.branches = 0                #: If statements
        self.calls = 0                   #: CallExpr occurrences
        self.max_syntactic_nesting = 0   #: deepest loop-in-loop chain
        self.call_targets = set()        #: distinct callee names

    def __repr__(self):
        return ("ModuleStats(loops=%d, branches=%d, calls=%d, "
                "max_nest=%d)" % (self.loops, self.branches, self.calls,
                                  self.max_syntactic_nesting))


_LOOP_TYPES = (ast.For, ast.While, ast.DoWhile)


def _walk_expr(expr, stats):
    if isinstance(expr, ast.CallExpr):
        stats.calls += 1
        stats.call_targets.add(expr.func)
        for arg in expr.args:
            _walk_expr(arg, stats)
    elif isinstance(expr, ast.BinOp):
        _walk_expr(expr.left, stats)
        _walk_expr(expr.right, stats)
    elif isinstance(expr, ast.UnaryOp):
        _walk_expr(expr.operand, stats)
    elif isinstance(expr, ast.Index):
        _walk_expr(expr.index, stats)
    elif isinstance(expr, ast.Deref):
        _walk_expr(expr.addr, stats)
    # Const / Var / AddrOf are leaves.


def _stmt_exprs(stmt):
    """Every expression directly attached to *stmt*."""
    if isinstance(stmt, ast.Assign):
        return (stmt.expr,)
    if isinstance(stmt, ast.Store):
        return (stmt.index, stmt.expr)
    if isinstance(stmt, ast.Poke):
        return (stmt.addr, stmt.expr)
    if isinstance(stmt, ast.If):
        return (stmt.cond,)
    if isinstance(stmt, ast.While) or isinstance(stmt, ast.DoWhile):
        return (stmt.cond,)
    if isinstance(stmt, ast.For):
        return (stmt.start, stmt.stop)
    if isinstance(stmt, ast.Return):
        return () if stmt.expr is None else (stmt.expr,)
    if isinstance(stmt, ast.ExprStmt):
        return (stmt.expr,)
    return ()


def _stmt_bodies(stmt):
    if isinstance(stmt, ast.If):
        return (stmt.then, stmt.orelse)
    if isinstance(stmt, _LOOP_TYPES):
        return (stmt.body,)
    return ()


def _walk_body(body, stats, depth):
    deepest = depth
    for stmt in body:
        for expr in _stmt_exprs(stmt):
            _walk_expr(expr, stats)
        if isinstance(stmt, _LOOP_TYPES):
            stats.loops += 1
            inner = _walk_body(stmt.body, stats, depth + 1)
            if inner > deepest:
                deepest = inner
        else:
            if isinstance(stmt, ast.If):
                stats.branches += 1
            for sub in _stmt_bodies(stmt):
                inner = _walk_body(sub, stats, depth)
                if inner > deepest:
                    deepest = inner
    return deepest


def module_stats(module):
    """Count the static structure of *module*; returns
    :class:`ModuleStats`."""
    stats = ModuleStats()
    for function in module.functions.values():
        stats.functions += 1
        deepest = _walk_body(function.body, stats, 0)
        if deepest > stats.max_syntactic_nesting:
            stats.max_syntactic_nesting = deepest
    return stats
