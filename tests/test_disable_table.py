"""Tests for the speculation disable table (paper section 2.3.2)."""

import pytest

from repro.core import LoopDetector
from repro.core.speculation import (
    SpeculationDisableTable,
    SpeculationEngine,
    simulate,
)
from repro.cpu import trace_control_flow
from repro.lang import Assign, For, Module, Return, Var, compile_module

from reference.tables import blocked_loops


class TestDisableTableUnit:
    def test_blocks_after_poor_record(self):
        table = SpeculationDisableTable(min_samples=4, hit_threshold=0.5)
        for _ in range(3):
            table.note(100, correct=False)
        assert not table.blocked(100)       # below min_samples
        table.note(100, correct=False)
        assert table.blocked(100)
        assert table.blocks_installed == 1

    def test_good_loop_never_blocked(self):
        table = SpeculationDisableTable(min_samples=4, hit_threshold=0.5)
        for _ in range(20):
            table.note(7, correct=True)
        assert not table.blocked(7)

    def test_mixed_record_follows_threshold(self):
        table = SpeculationDisableTable(min_samples=10,
                                        hit_threshold=0.6)
        for _ in range(5):
            table.note(9, correct=True)
        for _ in range(5):
            table.note(9, correct=False)    # rate 0.5 < 0.6
        assert table.blocked(9)

    def test_capacity_evicts_lru(self):
        table = SpeculationDisableTable(capacity=2, min_samples=1,
                                        hit_threshold=0.5)
        for loop in (1, 2, 3):
            table.note(loop, correct=False)
        assert len(table) == 2
        assert 1 not in blocked_loops(table)

    def test_blocked_is_a_pure_query(self):
        # The walk skips blocked() at events where no spawn is
        # possible, so asking must not change the table.
        table = SpeculationDisableTable(capacity=2, min_samples=1,
                                        hit_threshold=0.5)
        for loop in (4, 5):
            table.note(loop, correct=False)
        assert table.blocked(4) and table.blocked(4)
        assert not table.blocked(6)
        assert blocked_loops(table) == [4, 5]
        table.note(6, correct=False)        # evicts the LRU entry: 4
        assert blocked_loops(table) == [5, 6]
        assert table.blocks_installed == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SpeculationDisableTable(hit_threshold=1.5)
        with pytest.raises(ValueError):
            SpeculationDisableTable(min_samples=0)

    def test_stats_accessible(self):
        table = SpeculationDisableTable()
        table.note(5, correct=True)
        table.note(5, correct=False)
        stats = table._stats.get(5)
        assert stats.correct == 1 and stats.wrong == 1
        assert stats.hit_rate == 0.5


class TestEngineIntegration:
    def _index(self):
        # A single 3-iteration loop executed repeatedly: with 8 TUs the
        # IDLE policy speculates 5+ doomed iterations per execution.
        m = Module("t")
        m.function("work", [], [
            Assign("a", 0),
            For("i", 0, 3, [Assign("a", Var("a") + Var("i"))]),
            Return(Var("a")),
        ])
        from repro.lang import CallExpr, ExprStmt
        m.function("main", [], [ExprStmt(CallExpr("work"))
                                for _ in range(30)] + [Return(0)])
        trace = trace_control_flow(compile_module(m))
        return LoopDetector().run(trace)

    def test_blocks_hopeless_loop_and_cuts_misspeculation(self):
        index = self._index()
        plain = simulate(index, num_tus=8, policy="idle")
        table = SpeculationDisableTable(min_samples=5, hit_threshold=0.5)
        guarded = simulate(index, num_tus=8, policy="idle",
                           disable_table=table)
        assert plain.squashed_misspec > 0
        assert len(table) >= 1
        assert guarded.squashed_misspec < plain.squashed_misspec
        assert guarded.hit_ratio >= plain.hit_ratio

    def test_policy_squashes_not_counted_against_loop(self):
        # STR(i) squashes are policy decisions, not prediction failures:
        # they must not feed the disable table.
        index = self._index()
        table = SpeculationDisableTable(min_samples=1, hit_threshold=0.99)
        engine = SpeculationEngine(num_tus=4, policy="str(1)",
                                   disable_table=table)
        result = engine.run(index)
        for loop in blocked_loops(table):
            stats = table._stats.get(loop)
            assert stats.wrong > 0      # only real misses block
        assert result.total_cycles > 0
