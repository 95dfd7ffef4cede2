"""Tests for the AST optimizer: semantics preserved, work removed."""

from hypothesis import given, settings, strategies as st

from repro.cpu import Machine
from repro.lang import (
    Assign,
    BinOp,
    Break,
    CallExpr,
    Const,
    ExprStmt,
    For,
    If,
    Index,
    Module,
    Return,
    UnaryOp,
    Var,
    While,
    compile_module,
)
from repro.lang.optimizer import Optimizer, optimize_module

from reference.events import index_records


def optimization_report(module):
    """``(optimized module, optimizer)``, to inspect what was
    rewritten."""
    optimizer = Optimizer()
    return optimizer.module(module), optimizer


def run(module):
    machine = Machine(compile_module(module))
    machine.run(max_instructions=2_000_000)
    return machine.regs[4]


def equivalent(module):
    """Assert optimized module computes the same result; return the
    (plain_size, optimized_size) instruction counts."""
    optimized = optimize_module(module)
    plain_result = run(module)
    opt_result = run(optimized)
    assert plain_result == opt_result
    return len(compile_module(module)), len(compile_module(optimized))


class TestFolding:
    def test_constant_expression_folds(self):
        m = Module("t")
        m.function("main", [], [Return(Const(2) * 3 + Const(10) // 4)])
        optimized, opt = optimization_report(m)
        assert opt.folded > 0
        ret = optimized.functions["main"].body[0]
        assert isinstance(ret.expr, Const)
        assert ret.expr.value == 8

    def test_division_semantics_preserved(self):
        m = Module("t")
        m.function("main", [], [Return(Const(-7) // 2 + Const(5) % 0)])
        # trunc(-7/2) = -3; x % 0 = x = 5 -> 2
        assert run(optimize_module(m)) == run(m) == 2

    def test_unary_folds(self):
        m = Module("t")
        m.function("main", [], [Return(UnaryOp("!", Const(0))
                                       + UnaryOp("-", Const(5)))])
        assert run(optimize_module(m)) == -4

    def test_identities(self):
        m = Module("t")
        m.function("main", [], [
            Assign("x", 9),
            Return(Var("x") + 0 + (Var("x") * 1) + (Var("x") * 0)
                   + (Var("x") ^ 0) + (Var("x") >> 0)),
        ])
        plain, optimized = equivalent(m)
        assert optimized < plain

    def test_zero_multiply_keeps_calls(self):
        m = Module("t")
        m.scalar("hits", 0)
        m.function("bump", [], [Assign("hits", Var("hits") + 1),
                                Return(1)])
        m.function("main", [], [
            Assign("x", CallExpr("bump") * 0),
            Return(Var("hits")),
        ])
        # bump() must still run exactly once.
        assert run(optimize_module(m)) == 1


class TestDeadCode:
    def test_constant_if_keeps_one_arm(self):
        m = Module("t")
        m.function("main", [], [
            If(Const(1), [Return(10)], [Return(20)]),
        ])
        optimized, opt = optimization_report(m)
        assert opt.dead_branches == 1
        assert run(optimized) == 10

    def test_constant_false_while_removed(self):
        m = Module("t")
        m.function("main", [], [
            Assign("x", 1),
            While(Const(0), [Assign("x", 99)]),
            Return(Var("x")),
        ])
        optimized, opt = optimization_report(m)
        assert opt.dead_branches == 1
        assert run(optimized) == 1

    def test_empty_for_becomes_init(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 5, 5, [Assign("acc", 99)]),
            Return(Var("acc") + Var("i")),
        ])
        assert equivalent(m)[1] < equivalent(m)[0]
        assert run(optimize_module(m)) == 5     # i keeps its start value

    def test_unreachable_after_return_trimmed(self):
        m = Module("t")
        m.function("main", [], [
            Return(7),
            Assign("x", 1),
            Return(0),
        ])
        plain, optimized = equivalent(m)
        assert optimized < plain

    def test_pure_expression_statement_removed(self):
        m = Module("t")
        m.array("a", 4)
        m.function("main", [], [
            ExprStmt(Index("a", 2) + 5),
            Return(3),
        ])
        _optimized, opt = optimization_report(m)
        assert opt.dead_statements == 1

    def test_call_statement_kept(self):
        m = Module("t")
        m.scalar("n", 0)
        m.function("f", [], [Assign("n", Var("n") + 1), Return(0)])
        m.function("main", [], [
            ExprStmt(CallExpr("f")),
            Return(Var("n")),
        ])
        assert run(optimize_module(m)) == 1


class TestLoopPreservation:
    def test_live_loops_survive_with_same_trip_counts(self):
        from repro.core import LoopDetector
        from repro.cpu import trace_control_flow
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 12, [Assign("acc", Var("acc") + Var("i") * 1)]),
            Return(Var("acc")),
        ])
        optimized = optimize_module(m)
        index = LoopDetector().run(
            trace_control_flow(compile_module(optimized)))
        recs = list(index_records(index).values())
        assert len(recs) == 1
        assert recs[0].iterations == 12

    def test_break_still_works(self):
        m = Module("t")
        m.function("main", [], [
            Assign("n", 0),
            While(Const(1), [
                Assign("n", Var("n") + 1),
                If(Var("n") >= 5, [Break()]),
            ]),
            Return(Var("n")),
        ])
        assert run(optimize_module(m)) == 5


class TestDifferential:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30),
           st.integers(0, 3), st.integers(1, 6))
    def test_random_programs_equivalent(self, a, b, sel, trips):
        m = Module("t")
        m.array("data", 8, init=[3, 1, 4, 1, 5, 9, 2, 6])
        body = [
            Assign("acc", Var("acc") + Index("data", Var("i") % 8) * 1
                   + Const(a) * Const(b) + 0),
            If(BinOp("==", Const(sel), Const(1)),
               [Assign("acc", Var("acc") * 2)],
               [Assign("acc", Var("acc") + 1)]),
        ]
        m.function("main", [], [
            Assign("acc", Const(a) + Const(b)),
            For("i", 0, trips, body),
            Return(Var("acc")),
        ])
        optimized = optimize_module(m)
        assert run(m) == run(optimized)
        assert len(compile_module(optimized)) \
            <= len(compile_module(m))

    def test_workload_module_equivalent_after_optimization(self):
        # End-to-end: an optimized workload computes the same result.
        from repro.workloads import get
        module = get("mgrid").build_module(1)
        optimized = optimize_module(module)
        assert run(module) == run(optimized)
