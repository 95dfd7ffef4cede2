"""Tests for the mini-language compiler: compiled programs must compute
the same results as a Python evaluation of the same algorithm."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Machine, trace_control_flow
from repro.lang import (
    AddrOf,
    Assign,
    Break,
    CallExpr,
    Const,
    Continue,
    Deref,
    DoWhile,
    ExprStmt,
    For,
    If,
    Index,
    LangError,
    Module,
    Poke,
    Return,
    Store,
    Var,
    While,
    compile_module,
)


def run_main(module, max_instructions=2_000_000):
    """Compile, run, and return (machine, memory-view helper)."""
    program = compile_module(module)
    machine = Machine(program)
    machine.run(max_instructions=max_instructions)
    return machine, program


def result_array(machine, program, name, count):
    base = program.data.address_of(name)
    return machine.memory.snapshot(base, count)


class TestBasics:
    def test_return_value_in_rv(self):
        m = Module("t")
        m.function("main", [], [Return(41 + Const(1))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 42

    def test_locals_and_arithmetic(self):
        m = Module("t")
        m.function("main", [], [
            Assign("a", 10),
            Assign("b", Var("a") * 3 + 4),
            Return(Var("b") % 7),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == (10 * 3 + 4) % 7

    def test_global_scalars_shared_between_functions(self):
        m = Module("t")
        m.scalar("counter", 5)
        m.function("bump", [], [Assign("counter", Var("counter") + 1),
                                Return()])
        m.function("main", [], [
            ExprStmt(CallExpr("bump")),
            ExprStmt(CallExpr("bump")),
            Return(Var("counter")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 7

    def test_array_store_load(self):
        m = Module("t")
        m.array("arr", 8)
        m.function("main", [], [
            For("i", 0, 8, [Store("arr", Var("i"), Var("i") * Var("i"))]),
            Return(Index("arr", 5)),
        ])
        machine, program = run_main(m)
        assert machine.regs[4] == 25
        assert result_array(machine, program, "arr", 8) \
            == [i * i for i in range(8)]

    def test_array_initializer(self):
        m = Module("t")
        m.array("arr", 4, init=[9, 8, 7, 6])
        m.function("main", [], [Return(Index("arr", 2))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 7

    def test_deref_and_poke(self):
        m = Module("t")
        m.array("heap", 16)
        m.function("main", [], [
            Assign("p", AddrOf("heap") + 3),
            Poke(Var("p"), 123),
            Return(Deref(Var("p"))),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 123


class TestControlStructures:
    def test_if_else(self):
        for value, expected in ((3, 1), (9, 2)):
            m = Module("t")
            m.function("main", [], [
                Assign("x", value),
                If(Var("x") < 5, [Return(1)], [Return(2)]),
            ])
            machine, _ = run_main(m)
            assert machine.regs[4] == expected

    def test_while_computes_sum(self):
        m = Module("t")
        m.function("main", [], [
            Assign("i", 0), Assign("acc", 0),
            While(Var("i") < 10, [
                Assign("acc", Var("acc") + Var("i")),
                Assign("i", Var("i") + 1),
            ]),
            Return(Var("acc")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == sum(range(10))

    def test_while_zero_iterations(self):
        m = Module("t")
        m.function("main", [], [
            Assign("i", 10),
            While(Var("i") < 10, [Assign("i", Var("i") + 1)]),
            Return(Var("i")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 10

    def test_dowhile_runs_at_least_once(self):
        m = Module("t")
        m.function("main", [], [
            Assign("i", 10), Assign("n", 0),
            DoWhile([Assign("n", Var("n") + 1)], Var("i") < 5),
            Return(Var("n")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 1

    def test_for_with_step(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 10, [Assign("acc", Var("acc") + Var("i"))], step=3),
            Return(Var("acc")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 0 + 3 + 6 + 9

    def test_for_negative_step(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 5, 0, [Assign("acc", Var("acc") + Var("i"))], step=-1),
            Return(Var("acc")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 5 + 4 + 3 + 2 + 1

    def test_break_and_continue(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 100, [
                If(Var("i").eq(7), [Break()]),
                If(Var("i") % 2, [Continue()]),
                Assign("acc", Var("acc") + Var("i")),
            ]),
            Return(Var("acc")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 0 + 2 + 4 + 6

    def test_nested_loops(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 5, [
                For("j", 0, 4, [Assign("acc", Var("acc") + 1)]),
            ]),
            Return(Var("acc")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 20

    def test_return_from_inside_loop(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 100, [If(Var("i").eq(13), [Return(Var("i"))])]),
            Return(-1),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 13


class TestCalls:
    def test_arguments_passed(self):
        m = Module("t")
        m.function("addmul", ["a", "b", "c"],
                   [Return(Var("a") + Var("b") * Var("c"))])
        m.function("main", [], [Return(CallExpr("addmul", 2, 3, 4))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 14

    def test_recursion_factorial(self):
        m = Module("t")
        m.function("fact", ["n"], [
            If(Var("n") <= 1, [Return(1)]),
            Return(Var("n") * CallExpr("fact", Var("n") - 1)),
        ])
        m.function("main", [], [Return(CallExpr("fact", 10))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 3628800

    def test_mutual_recursion(self):
        m = Module("t")
        m.function("is_even", ["n"], [
            If(Var("n").eq(0), [Return(1)]),
            Return(CallExpr("is_odd", Var("n") - 1)),
        ])
        m.function("is_odd", ["n"], [
            If(Var("n").eq(0), [Return(0)]),
            Return(CallExpr("is_even", Var("n") - 1)),
        ])
        m.function("main", [], [Return(CallExpr("is_even", 9))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 0

    def test_fibonacci_recursive(self):
        m = Module("t")
        m.function("fib", ["n"], [
            If(Var("n") < 2, [Return(Var("n"))]),
            Return(CallExpr("fib", Var("n") - 1)
                   + CallExpr("fib", Var("n") - 2)),
        ])
        m.function("main", [], [Return(CallExpr("fib", 12))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 144

    def test_call_preserves_live_temporaries(self):
        m = Module("t")
        m.function("f", [], [Return(100)])
        # 5 + f() evaluates f() with "5" live in a temporary.
        m.function("main", [], [Return(5 + CallExpr("f"))])
        machine, _ = run_main(m)
        assert machine.regs[4] == 105

    def test_stack_balanced_after_calls(self):
        m = Module("t")
        m.function("f", ["n"], [Return(Var("n") + 1)])
        m.function("main", [], [
            Assign("a", CallExpr("f", CallExpr("f", CallExpr("f", 0)))),
            Return(Var("a")),
        ])
        machine, _ = run_main(m)
        assert machine.regs[4] == 3
        from repro.cpu import STACK_TOP
        assert machine.regs[2] == STACK_TOP


class TestDeepExpressions:
    def test_spill_beyond_temp_pool(self):
        # Right-nested sums of variables force the evaluation stack past
        # the 10 temporaries, exercising the memory spill path.
        deep = Var("v")
        for _ in range(15):
            deep = Var("v") + deep
        m = Module("t")
        m.function("main", [], [Assign("v", 3), Return(deep)])
        machine, _ = run_main(m)
        assert machine.regs[4] == 3 * 16

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 30))
    def test_random_arithmetic_matches_python(self, a, b, c):
        m = Module("t")
        m.function("main", [], [
            Assign("a", a), Assign("b", b), Assign("c", c),
            Return((Var("a") * Var("b") + Var("c"))
                   - (Var("a") % Var("c"))
                   + (Var("b") // Var("c"))),
        ])
        machine, _ = run_main(m)
        av, bv, cv = a, b, c
        trunc_div = int(bv / cv) if cv else 0
        trunc_rem = av - int(av / cv) * cv if cv else av
        expected = (av * bv + cv) - trunc_rem + trunc_div
        assert machine.regs[4] == expected


class TestLoopShape:
    def test_while_emits_single_backward_closing_branch(self):
        m = Module("t")
        m.function("main", [], [
            Assign("i", 0),
            While(Var("i") < 5, [Assign("i", Var("i") + 1)]),
            Return(0),
        ])
        program = compile_module(m)
        trace = trace_control_flow(program)
        from repro.isa import InstrKind
        backward_taken = [r for r in trace.iter_records()
                          if r.is_backward and r.taken
                          and r.kind == int(InstrKind.BRANCH)]
        # One backward closing branch; with true rotation the guard runs
        # the first trip, so the closer is taken trips-1 times.
        pcs = {r.pc for r in backward_taken}
        assert len(pcs) == 1
        assert len(backward_taken) == 4

    def test_for_loop_trip_count_matches_closing_branch(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 7, [Assign("x", Var("i"))]),
            Return(0),
        ])
        trace = trace_control_flow(compile_module(m))
        from repro.isa import InstrKind
        taken = [r for r in trace.iter_records()
                 if r.is_backward and r.taken
                 and r.kind == int(InstrKind.BRANCH)]
        assert len(taken) == 6      # trips - 1 with a rotated guard


class TestErrors:
    def test_missing_main(self):
        with pytest.raises(LangError):
            compile_module(Module("t"))

    def test_main_with_params_rejected(self):
        m = Module("t")
        m.function("main", ["x"], [Return(0)])
        with pytest.raises(LangError):
            compile_module(m)

    def test_unknown_variable(self):
        m = Module("t")
        m.function("main", [], [Return(Var("ghost"))])
        with pytest.raises(LangError):
            compile_module(m)

    def test_unknown_function(self):
        m = Module("t")
        m.function("main", [], [Return(CallExpr("ghost"))])
        with pytest.raises(LangError):
            compile_module(m)

    def test_wrong_arity(self):
        m = Module("t")
        m.function("f", ["a"], [Return(Var("a"))])
        m.function("main", [], [Return(CallExpr("f", 1, 2))])
        with pytest.raises(LangError):
            compile_module(m)

    def test_break_outside_loop(self):
        m = Module("t")
        m.function("main", [], [Break()])
        with pytest.raises(LangError):
            compile_module(m)

    def test_duplicate_function(self):
        m = Module("t")
        m.function("main", [], [Return(0)])
        with pytest.raises(LangError):
            m.function("main", [], [Return(0)])

    def test_unknown_array(self):
        m = Module("t")
        m.function("main", [], [Return(Index("ghost", 0))])
        with pytest.raises(LangError):
            compile_module(m)
