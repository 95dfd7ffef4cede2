"""Tests for the thread-speculation engine (paper section 3)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LoopDetector
from repro.core.speculation import (
    Policy,
    SpeculationEngine,
    StrPolicy,
    make_policy,
    simulate,
    simulate_grid,
    simulate_infinite,
)
from repro.cpu import trace_control_flow
from repro.lang import (
    Assign,
    CallExpr,
    For,
    Module,
    Return,
    Var,
    compile_module,
)

from reference.events import index_records


def build_index(module, cls_capacity=16):
    trace = trace_control_flow(compile_module(module), 3_000_000)
    assert trace.halted
    return LoopDetector(cls_capacity=cls_capacity).run(trace)


def uniform_loop_module(trips, prelude=0):
    m = Module("t")
    stmts = []
    for k in range(prelude):
        stmts.append(Assign("p%d" % k, k))
    stmts.append(Assign("acc", 0))
    stmts.append(For("i", 0, trips, [
        Assign("acc", Var("acc") + Var("i") * 3),
    ]))
    stmts.append(Return(Var("acc")))
    m.function("main", [], stmts)
    return m


def repeated_loop_module(executions, trips):
    m = Module("t")
    m.function("work", [], [
        Assign("a", 0),
        For("i", 0, trips, [Assign("a", Var("a") + Var("i"))]),
        Return(Var("a")),
    ])
    m.function("main", [], [
        Assign("s", 0),
        For("r", 0, executions, [
            Assign("s", Var("s") + CallExpr("work")),
        ]),
        Return(Var("s")),
    ])
    return m


class TestBasicProperties:
    def test_single_tu_never_speculates(self):
        index = build_index(uniform_loop_module(50))
        result = simulate(index, num_tus=1, policy="idle")
        assert result.threads_spawned == 0
        assert result.tpc == 1.0
        assert result.total_cycles == index.total_instructions

    def test_tpc_bounded_by_tu_count(self):
        index = build_index(uniform_loop_module(200))
        for tus in (2, 4, 8):
            result = simulate(index, num_tus=tus, policy="idle")
            assert 1.0 <= result.tpc <= tus + 1e-9

    def test_long_uniform_loop_fills_four_tus(self):
        index = build_index(uniform_loop_module(500))
        result = simulate(index, num_tus=4, policy="idle")
        # Uniform iterations: the pipeline should run essentially full.
        assert result.tpc > 3.4

    def test_tpc_monotone_in_tus_for_long_loop(self):
        index = build_index(uniform_loop_module(800))
        tpcs = [simulate(index, num_tus=n, policy="idle").tpc
                for n in (1, 2, 4, 8)]
        assert all(a <= b + 1e-9 for a, b in zip(tpcs, tpcs[1:]))

    def test_cycles_never_exceed_sequential(self):
        index = build_index(repeated_loop_module(6, 20))
        for policy in ("idle", "str", "str(2)"):
            result = simulate(index, num_tus=4, policy=policy)
            assert result.total_cycles <= index.total_instructions
            assert result.total_cycles > 0

    def test_no_loops_means_no_speculation(self):
        m = Module("t")
        m.function("main", [], [Assign("x", 1), Return(Var("x"))])
        index = build_index(m)
        result = simulate(index, num_tus=8)
        assert result.threads_spawned == 0
        assert result.tpc == 1.0

    def test_conservation_promoted_plus_squashed(self):
        index = build_index(repeated_loop_module(8, 15))
        result = simulate(index, num_tus=4, policy="idle")
        assert result.promoted + result.squashed == result.threads_spawned \
            - result.unresolved_at_end
        assert result.unresolved_at_end == 0

    def test_executing_credit_never_exceeds_waiting(self):
        index = build_index(repeated_loop_module(8, 15))
        result = simulate(index, num_tus=4, policy="idle")
        assert result.credit_executing <= result.credit_waiting
        assert result.tpc_executing <= result.tpc + 1e-12


class TestPolicies:
    def test_idle_overspeculates_last_iterations(self):
        # IDLE always fills TUs, so it speculates past the loop end and
        # pays misspeculations; trips=5 with 8 TUs is mostly misses.
        index = build_index(repeated_loop_module(10, 5))
        idle = simulate(index, num_tus=8, policy="idle")
        assert idle.squashed_misspec > 0
        assert idle.hit_ratio < 1.0

    def test_str_cuts_misspeculation_vs_idle(self):
        index = build_index(repeated_loop_module(12, 6))
        idle = simulate(index, num_tus=8, policy="idle")
        strp = simulate(index, num_tus=8, policy="str")
        assert strp.hit_ratio >= idle.hit_ratio
        assert strp.squashed_misspec <= idle.squashed_misspec

    def test_str_perfect_on_constant_trip_counts(self):
        # Sequentially repeated executions of one loop (no enclosing loop
        # to interfere): after the first execution the LET knows the trip
        # count and STR speculates exactly the remaining iterations.
        m = Module("t")
        m.function("work", [], [
            Assign("a", 0),
            For("i", 0, 6, [Assign("a", Var("a") + Var("i"))]),
            Return(Var("a")),
        ])
        m.function("main", [], (
            [Assign("s", 0)]
            + [Assign("s", Var("s") + CallExpr("work"))
               for _ in range(12)]
            + [Return(Var("s"))]))
        index = build_index(m)
        result = simulate(index, num_tus=4, policy="str")
        # Only the IDLE-fallback first execution can misspeculate.
        assert result.hit_ratio > 0.85
        idle = simulate(index, num_tus=4, policy="idle")
        assert result.squashed_misspec < idle.squashed_misspec

    def test_policy_spec_strings(self):
        assert make_policy("idle").name == "IDLE"
        assert make_policy("str").name == "STR"
        assert make_policy("str(3)").name == "STR(3)"
        assert make_policy("all").name == "ALL"
        with pytest.raises(ValueError):
            make_policy("bogus")
        with pytest.raises(ValueError):
            make_policy("str(0)")

    def test_str_i_squashes_on_deep_unspeculated_nesting(self):
        # Outer loop speculated; three levels of inner loops below it.
        m = Module("t")
        inner = [Assign("x", Var("x") + 1)]
        body = [For("a", 0, 3, [For("b", 0, 3, [For("c", 0, 3, inner)])])]
        m.function("main", [], [
            Assign("x", 0),
            For("o", 0, 6, body),
            Return(Var("x")),
        ])
        index = build_index(m)
        str1 = simulate(index, num_tus=4, policy="str(1)")
        strp = simulate(index, num_tus=4, policy="str")
        assert str1.squashed_policy > 0
        assert strp.squashed_policy == 0

    def test_infinite_tus_requires_oracle_policy(self):
        with pytest.raises(ValueError):
            SpeculationEngine(num_tus=None, policy="idle")

    def test_invalid_tu_count(self):
        with pytest.raises(ValueError):
            SpeculationEngine(num_tus=0)


class CustomPolicy(StrPolicy):
    name = "CUSTOM"


class TestConfigChecks:
    """``simulate`` and ``simulate_grid`` run one walk and reject the
    configurations it cannot price, before pricing any."""

    @pytest.fixture(scope="class")
    def index(self):
        return build_index(uniform_loop_module(20))

    @pytest.mark.parametrize("num_tus, policy", [
        (None, "idle"), (None, "str"), (None, "str(2)"),
        (0, "str"), (-3, "all"),
        (4, CustomPolicy()), (4, Policy()),
    ], ids=["inf-idle", "inf-str", "inf-str2", "zero-tus",
            "negative-tus", "policy-subclass", "base-policy"])
    def test_rejected(self, index, num_tus, policy):
        with pytest.raises(ValueError):
            simulate(index, num_tus=num_tus, policy=policy)
        with pytest.raises(ValueError):
            simulate_grid(index, [(4, "str", None),
                                  (num_tus, policy, None)])

    def test_oracle_accepts_finite_and_unlimited_tus(self, index):
        finite, unlimited = simulate_grid(index, [(4, "all", None),
                                                  (None, "all", None)])
        assert finite.num_tus == 4 and finite.tpc <= 4
        assert unlimited.num_tus == "inf"
        assert unlimited.state() == simulate_infinite(index).state()


class TestInfiniteTUs:
    def test_ideal_tpc_exceeds_finite(self):
        index = build_index(repeated_loop_module(10, 30))
        ideal = simulate_infinite(index)
        finite = simulate(index, num_tus=4, policy="str")
        assert ideal.tpc >= finite.tpc
        assert ideal.squashed == 0          # oracle never misspeculates
        assert ideal.hit_ratio == 1.0

    def test_ideal_tpc_large_for_iteration_rich_program(self):
        index = build_index(uniform_loop_module(1000))
        ideal = simulate_infinite(index)
        # Nearly all work is pre-executed speculatively.
        assert ideal.tpc > 10.0


class TestMetricsShape:
    def test_table2_row_format(self):
        index = build_index(repeated_loop_module(6, 10))
        result = simulate(index, num_tus=4, policy="str(3)",
                          name="demo")
        row = result.as_table2_row()
        assert row[0] == "demo"
        assert len(row) == len(result.TABLE2_HEADERS)
        assert result.policy_name == "STR(3)"

    def test_instr_to_verification_positive_when_resolved(self):
        index = build_index(repeated_loop_module(6, 10))
        result = simulate(index, num_tus=4, policy="idle")
        assert result.resolved > 0
        assert result.avg_instr_to_verification > 0

    def test_count_waiting_flag(self):
        index = build_index(repeated_loop_module(6, 10))
        incl = simulate(index, num_tus=4, policy="idle",
                        count_waiting=True)
        excl = simulate(index, num_tus=4, policy="idle",
                        count_waiting=False)
        assert excl.tpc <= incl.tpc + 1e-12


class TestHandComputedScenario:
    def test_two_tus_halve_uniform_loop_time(self):
        """With 2 TUs and a long uniform loop, steady state completes two
        iterations per iteration-time: total cycles ~ half sequential."""
        trips = 400
        index = build_index(uniform_loop_module(trips))
        seq_cycles = index.total_instructions
        result = simulate(index, num_tus=2, policy="idle")
        assert result.total_cycles < 0.62 * seq_cycles
        assert result.tpc > 1.75

    def test_speculation_events_bounded_by_iteration_starts(self):
        index = build_index(uniform_loop_module(100))
        result = simulate(index, num_tus=4, policy="idle")
        iteration_events = sum(
            rec.detected_iterations
            for rec in index_records(index).values())
        assert result.speculation_events <= iteration_events


class TestPropertyInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 8), st.integers(2, 5))
    def test_invariants_random_nested(self, outer, inner, tus):
        m = Module("t")
        m.function("main", [], [
            Assign("x", 0),
            For("i", 0, outer, [
                For("j", 0, inner, [Assign("x", Var("x") + 1)]),
            ]),
            Return(Var("x")),
        ])
        index = build_index(m)
        for policy in ("idle", "str", "str(2)"):
            r = simulate(index, num_tus=tus, policy=policy)
            assert 1.0 <= r.tpc <= tus + 1e-9
            assert 0 <= r.hit_ratio <= 1.0
            assert r.total_cycles <= index.total_instructions
            assert r.promoted + r.squashed + r.unresolved_at_end \
                == r.threads_spawned

    @settings(max_examples=15, deadline=None)
    @given(st.integers(5, 60))
    def test_data_independent_of_waiting_flag(self, trips):
        index = build_index(uniform_loop_module(trips))
        a = simulate(index, num_tus=4, policy="str", count_waiting=True)
        b = simulate(index, num_tus=4, policy="str", count_waiting=False)
        # Scheduling is identical; only the accounting differs.
        assert a.total_cycles == b.total_cycles
        assert a.promoted == b.promoted
        assert a.credit_executing == b.credit_executing
