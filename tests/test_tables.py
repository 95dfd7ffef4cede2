"""Tests for the LET/LIT history tables and the hit-ratio simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    LoopDetector,
    LoopHistoryTable,
    NestingTracker,
    POLICY_LRU,
    POLICY_NESTING_AWARE,
    TableHitRatioSimulator,
)
from repro.cpu import trace_control_flow
from repro.lang import Assign, For, Module, Return, Var, compile_module
from reference.tables import EventTableReplay


class TestLoopHistoryTable:
    def test_insert_and_lookup(self):
        t = LoopHistoryTable(capacity=4)
        entry = t.insert(100)
        assert t.lookup(100) is entry
        assert 100 in t
        assert len(t) == 1

    def test_lru_eviction_order(self):
        t = LoopHistoryTable(capacity=2)
        t.insert(1)
        t.insert(2)
        t.lookup(1)                    # 1 becomes most recent
        t.insert(3)                    # evicts 2
        assert 2 not in t
        assert 1 in t and 3 in t
        assert t.evictions == 1

    def test_reinsert_refreshes_recency(self):
        t = LoopHistoryTable(capacity=2)
        t.insert(1)
        t.insert(2)
        t.insert(1)                    # already present: touch only
        t.insert(3)                    # evicts 2, not 1
        assert 1 in t and 2 not in t

    def test_lookup_without_touch(self):
        t = LoopHistoryTable(capacity=2)
        t.insert(1)
        t.insert(2)
        t.lookup(1, touch=False)
        t.insert(3)                    # 1 still LRU: evicted
        assert 1 not in t

    def test_unbounded_table(self):
        t = LoopHistoryTable(capacity=None)
        for loop in range(1000):
            t.insert(loop)
        assert len(t) == 1000
        assert t.evictions == 0

    def test_nesting_aware_inhibits_protected_eviction(self):
        t = LoopHistoryTable(capacity=1, policy=POLICY_NESTING_AWARE)
        t.insert(5)
        # Inserting loop 9 would evict loop 5, which nests inside 9.
        assert t.insert(9, nested_in_candidate={5}) is None
        assert 5 in t and 9 not in t
        assert t.inhibited_insertions == 1

    def test_nesting_aware_allows_unprotected_eviction(self):
        t = LoopHistoryTable(capacity=1, policy=POLICY_NESTING_AWARE)
        t.insert(5)
        assert t.insert(9, nested_in_candidate={7}) is not None
        assert 9 in t and 5 not in t

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LoopHistoryTable(capacity=0)
        with pytest.raises(ValueError):
            LoopHistoryTable(policy="random")

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 9), max_size=80), st.integers(1, 6))
    def test_capacity_never_exceeded(self, loops, capacity):
        t = LoopHistoryTable(capacity=capacity)
        for loop in loops:
            t.insert(loop)
        assert len(t) <= capacity

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 9), min_size=1, max_size=80))
    def test_most_recent_never_evicted_next(self, loops):
        t = LoopHistoryTable(capacity=3)
        for loop in loops:
            t.insert(loop)
            victim = t.victim()
            if len(t) > 1:
                assert victim.loop != loop


def _nested_program(outer_trips, inner_trips, repeats=3):
    m = Module("t")
    body = [For("j", 0, inner_trips, [Assign("x", Var("j"))])]
    m.function("main", [], [
        For("r", 0, repeats, [For("i", 0, outer_trips, body)]),
        Return(0),
    ])
    return compile_module(m)


def _events_for(program):
    trace = trace_control_flow(program)
    detector = LoopDetector()
    detector.run(trace)
    return detector.events


class TestHitRatioSimulator:
    def test_repeating_loop_hits_after_warmup(self):
        events = _events_for(_nested_program(4, 5, repeats=6))
        sim = TableHitRatioSimulator(16, 16).replay(events)
        # Plenty of repetition: both tables should see strong hit ratios.
        assert sim.let_hit_ratio > 0.5
        assert sim.lit_hit_ratio > 0.7
        assert sim.let_accesses > 0 and sim.lit_accesses > 0

    def test_tiny_tables_thrash(self):
        # Many distinct loops with a 1-entry table: near-zero hits.
        m = Module("t")
        stmts = []
        for k in range(6):
            stmts.append(For("i%d" % k, 0, 4, [Assign("x", Var("i%d" % k))]))
        m.function("main", [], stmts + [Return(0)])
        events = _events_for(compile_module(m))
        small = TableHitRatioSimulator(1, 1).replay(events)
        big = TableHitRatioSimulator(16, 16).replay(events)
        assert small.let_hit_ratio <= big.let_hit_ratio
        assert small.lit_hit_ratio <= big.lit_hit_ratio

    def test_hit_ratio_monotone_in_table_size(self):
        events = _events_for(_nested_program(3, 4, repeats=5))
        ratios = [TableHitRatioSimulator(n, n).replay(events).lit_hit_ratio
                  for n in (1, 2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_single_execution_loop_misses_let(self):
        events = _events_for(_nested_program(3, 4, repeats=1))
        sim = TableHitRatioSimulator(16, 16).replay(events)
        # The outer loops execute once: their LET accesses cannot hit.
        assert sim.let_hit_ratio < 1.0

    def test_lit_first_iterations_not_tested(self):
        # A loop executing once with n iterations: LIT accesses = n - 1
        # (iterations 2..n); the first is undetected.
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 10, [Assign("x", Var("i"))]), Return(0)])
        events = _events_for(compile_module(m))
        sim = TableHitRatioSimulator(4, 4).replay(events)
        assert sim.lit_accesses == 9

    def test_nesting_aware_close_to_lru(self):
        events = _events_for(_nested_program(4, 5, repeats=6))
        lru = TableHitRatioSimulator(2, 2, POLICY_LRU).replay(events)
        aware = TableHitRatioSimulator(
            2, 2, POLICY_NESTING_AWARE).replay(events)
        # Paper section 2.3.2: the improvement is negligible; at least it
        # must not be drastically different on well-nested workloads.
        assert abs(lru.lit_hit_ratio - aware.lit_hit_ratio) < 0.35


class TestReplayMatchesReference:
    """The columnar replay against the per-event reference replay
    (``tests/reference/tables.py``) on real workloads: counters, table
    contents in LRU order, evictions and inhibited insertions."""

    @pytest.fixture(scope="class", params=["swim", "go", "gcc"])
    def index(self, request):
        from repro.workloads import get
        return LoopDetector().run(get(request.param).cf_trace(1))

    @pytest.mark.parametrize("policy", [POLICY_LRU, POLICY_NESTING_AWARE])
    @pytest.mark.parametrize("capacity", [1, 2, 4, 16])
    def test_columns_match_event_replay(self, index, policy, capacity):
        sim = TableHitRatioSimulator(capacity, capacity, policy)
        sim.replay_columns(index.columns())
        ref = EventTableReplay(capacity, capacity, policy)
        ref.replay(index.events)
        assert sim.counters() == ref.counters()
        assert sim.let_accesses > 0 and sim.lit_accesses > 0
        for table, ref_table in ((sim.let, ref.let), (sim.lit, ref.lit)):
            assert table.loops() == ref_table.loops()
            assert [e.completed for e in table._entries.values()] \
                == [e.completed for e in ref_table._entries.values()]
            assert (table.evictions, table.inhibited_insertions) \
                == (ref_table.evictions, ref_table.inhibited_insertions)


class TestNestingTracker:
    def test_records_inner_loops(self):
        events = _events_for(_nested_program(3, 4, repeats=2))
        tracker = NestingTracker()
        for event in events:
            tracker.on_event(event)
        # Exactly one loop (the innermost) is recorded inside others.
        nested_sets = [s for s in tracker.nested_in.values() if s]
        assert nested_sets
        inner_ids = set().union(*nested_sets)
        assert len(inner_ids) >= 1
