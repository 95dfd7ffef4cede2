"""Structured mini-language used to author the synthetic workloads.

Typical usage::

    from repro.lang import (Module, Function, For, Assign, Var, Index,
                            Store, compile_module)

    m = Module("demo")
    m.array("data", 64)
    i = Var("i")
    m.function("main", [], [
        For("i", 0, 64, [Store("data", i, i * i)]),
        Return(0),
    ])
    program = compile_module(m)
"""

from repro.lang.ast import (
    AddrOf,
    Assign,
    BinOp,
    Break,
    CallExpr,
    Const,
    Continue,
    Deref,
    DoWhile,
    Expr,
    ExprStmt,
    For,
    Function,
    If,
    Index,
    LangError,
    Module,
    Poke,
    Return,
    Stmt,
    Store,
    UnaryOp,
    Var,
    While,
    as_expr,
)
from repro.lang.compiler import MAX_PARAMS, compile_module
from repro.lang.inspect import ModuleStats, module_stats
from repro.lang.optimizer import optimize_module
from repro.lang.parser import compile_source, parse_module

__all__ = [
    "AddrOf",
    "Assign",
    "BinOp",
    "Break",
    "CallExpr",
    "Const",
    "Continue",
    "Deref",
    "DoWhile",
    "Expr",
    "ExprStmt",
    "For",
    "Function",
    "If",
    "Index",
    "LangError",
    "MAX_PARAMS",
    "Module",
    "ModuleStats",
    "Poke",
    "Return",
    "Stmt",
    "Store",
    "UnaryOp",
    "Var",
    "While",
    "as_expr",
    "compile_module",
    "compile_source",
    "module_stats",
    "optimize_module",
    "parse_module",
]
