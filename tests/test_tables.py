"""Tests for the LET/LIT history tables and the hit-ratio simulator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EndReason,
    LoopDetector,
    LoopHistoryTable,
    POLICY_LRU,
    POLICY_NESTING_AWARE,
    TableHitRatioSimulator,
)
from repro.core.events import EV_ITERATION, EventColumns
from repro.core.tables import TableRows
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
from repro.pipeline import SimulationSession
from repro.search.corpus import frontier_names
from repro.workloads import get
from repro.workloads.suite import SUITE_ORDER
from capture import load, workload_trace
from reference.events import (
    ExecutionEnd,
    ExecutionStart,
    IterationStart,
    SingleIteration,
    index_events,
    to_columns,
)
from reference.tables import EventTableReplay, NestingTracker, \
    table_loops


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
            victim = table_loops(t)[0]     # LRU head: evicted next
            if len(t) > 1:
                assert victim != loop


def _nested_program(outer_trips, inner_trips, repeats=3):
    m = Module("t")
    body = [For("j", 0, inner_trips, [Assign("x", Var("j"))])]
    m.function("main", [], [
        For("r", 0, repeats, [For("i", 0, outer_trips, body)]),
        Return(0),
    ])
    return compile_module(m)


def _columns_for(program):
    return LoopDetector().run(trace_control_flow(program)).columns


def _events_for(program):
    return index_events(LoopDetector().run(trace_control_flow(program)))


@pytest.fixture(scope="module")
def loop_index():
    return LoopDetector().run(trace_control_flow(
        _nested_program(4, 5, repeats=6)))


class TestHitRatioSimulator:
    def test_repeating_loop_hits_after_warmup(self):
        cols = _columns_for(_nested_program(4, 5, repeats=6))
        sim = TableHitRatioSimulator(16, 16).replay(cols)
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
        cols = _columns_for(compile_module(m))
        small = TableHitRatioSimulator(1, 1).replay(cols)
        big = TableHitRatioSimulator(16, 16).replay(cols)
        assert small.let_hit_ratio <= big.let_hit_ratio
        assert small.lit_hit_ratio <= big.lit_hit_ratio

    def test_hit_ratio_monotone_in_table_size(self):
        cols = _columns_for(_nested_program(3, 4, repeats=5))
        ratios = [TableHitRatioSimulator(n, n).replay(cols).lit_hit_ratio
                  for n in (1, 2, 4, 8, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(ratios, ratios[1:]))

    def test_single_execution_loop_misses_let(self):
        cols = _columns_for(_nested_program(3, 4, repeats=1))
        sim = TableHitRatioSimulator(16, 16).replay(cols)
        # The outer loops execute once: their LET accesses cannot hit.
        assert sim.let_hit_ratio < 1.0

    def test_lit_first_iterations_not_tested(self):
        # A loop executing once with n iterations: LIT accesses = n - 1
        # (iterations 2..n); the first is undetected.
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 10, [Assign("x", Var("i"))]), Return(0)])
        cols = _columns_for(compile_module(m))
        sim = TableHitRatioSimulator(4, 4).replay(cols)
        assert sim.lit_accesses == 9

    def test_nesting_aware_close_to_lru(self):
        cols = _columns_for(_nested_program(4, 5, repeats=6))
        lru = TableHitRatioSimulator(2, 2, POLICY_LRU).replay(cols)
        aware = TableHitRatioSimulator(
            2, 2, POLICY_NESTING_AWARE).replay(cols)
        # Paper section 2.3.2: the improvement is negligible; at least it
        # must not be drastically different on well-nested workloads.
        assert abs(lru.lit_hit_ratio - aware.lit_hit_ratio) < 0.35


def assert_matches_reference(events, capacity, policy):
    """The row walk over *events* against the per-event reference:
    counters, table contents in LRU order, each entry's ``completed``,
    evictions and inhibited insertions.  Returns the simulator."""
    sim = TableHitRatioSimulator(capacity, capacity, policy).replay(
        to_columns(events))
    ref = EventTableReplay(capacity, capacity, policy).replay(events)
    assert sim.counters() == ref.counters()
    for table, ref_table in ((sim.let, ref.let), (sim.lit, ref.lit)):
        assert table_loops(table) == table_loops(ref_table)
        assert [e.completed for e in table._entries.values()] \
            == [e.completed for e in ref_table._entries.values()]
        assert (table.evictions, table.inhibited_insertions) \
            == (ref_table.evictions, ref_table.inhibited_insertions)
    return sim


def _index(name):
    if name.startswith("frontier-"):
        return load(SimulationSession(workloads=(name,), cache_dir=None,
                                      max_instructions=30_000))[name][1]
    return LoopDetector().run(workload_trace(get(name), 1))


class TestReplayMatchesReference:
    """The row walk against the per-event reference replay
    (``tests/reference/tables.py``) on every analog and the frontier
    corpus, at sizes 1/2/4/16 under both policies."""

    @pytest.fixture(scope="class",
                    params=list(SUITE_ORDER) + frontier_names())
    def index(self, request):
        return _index(request.param)

    @pytest.mark.parametrize("policy", [POLICY_LRU, POLICY_NESTING_AWARE])
    @pytest.mark.parametrize("capacity", [1, 2, 4, 16])
    def test_columns_match_event_replay(self, index, policy, capacity):
        sim = assert_matches_reference(index_events(index), capacity,
                                       policy)
        assert sim.let_accesses > 0 and sim.lit_accesses > 0


#: Hand-built loop events: ``(kind, loop, exec_id, n)`` with kind one of
#: ``start`` (``n`` is the depth), ``iter`` (``n`` is the iteration
#: number), ``end`` (``n`` is the iteration count) and ``single``.
_EVENT_KINDS = {
    "start": ExecutionStart,
    "iter": IterationStart,
    "single": SingleIteration,
}


def _events(script):
    events = []
    for seq, (kind, loop, exec_id, n) in enumerate(script):
        if kind == "end":
            events.append(ExecutionEnd(seq, loop, exec_id, n,
                                       EndReason.NOT_TAKEN))
        else:
            events.append(_EVENT_KINDS[kind](seq, loop, exec_id, n))
    return events


def _execution(loop, exec_id, iterations, depth=0):
    """One whole execution: its start, starts 2..n, its end."""
    return ([("start", loop, exec_id, depth)]
            + [("iter", loop, exec_id, i)
               for i in range(2, iterations + 1)]
            + [("end", loop, exec_id, iterations)])


def _rows(events):
    rows = TableRows().build(to_columns(events))
    return list(zip(rows.kinds, rows.loops, rows.firsts, rows.counts))


class TestTableRows:
    """Runs of iteration starts as single rows, each checked against the
    per-event reference at LIT sizes 1 and 2 under both policies."""

    POLICIES = [POLICY_LRU, POLICY_NESTING_AWARE]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_run_of_a_loop_absent_from_the_lit(self, capacity, policy):
        # Outer loop 1 runs starts 3..5 after two inner executions of
        # loops 2 and 3: at size 1 or 2 under LRU, loop 1 has been
        # evicted, so its run misses three times and inserts nothing.
        events = _events(
            [("start", 1, 1, 0), ("iter", 1, 1, 2)]
            + _execution(2, 2, 3, 1) + _execution(3, 3, 3, 1)
            + [("iter", 1, 1, i) for i in (3, 4, 5)]
            + [("end", 1, 1, 5)])
        assert (EV_ITERATION, 1, 3, 3) in _rows(events)
        sim = assert_matches_reference(events, capacity, policy)
        if policy == POLICY_LRU:
            assert 1 not in sim.lit
            # No execution reaches a 4th start while present.
            assert sim.lit_hits == 0

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_run_from_iteration_two_and_resumed_run(self, capacity,
                                                    policy):
        # Loop 1: starts 2..4 (a run from a = 2, no completion before
        # its first access), an inner execution, then starts 5..6 (a
        # resumed run: its first access completes iteration 4 first).
        events = _events(
            [("start", 1, 1, 0)]
            + [("iter", 1, 1, i) for i in (2, 3, 4)]
            + _execution(2, 2, 2, 1)
            + [("iter", 1, 1, i) for i in (5, 6)]
            + [("end", 1, 1, 6)])
        rows = _rows(events)
        assert (EV_ITERATION, 1, 2, 3) in rows
        assert (EV_ITERATION, 1, 5, 2) in rows
        sim = assert_matches_reference(events, capacity, policy)
        if capacity == 2:
            # 4th start hits (completed 2), both resumed starts hit;
            # loop 2's single start misses at completed 0.
            assert sim.lit_hits == 3
            assert sim.lit.lookup(1, touch=False).completed == 5

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_run_split_by_an_inner_single_iteration(self, capacity,
                                                    policy):
        events = _events(
            [("start", 1, 1, 0), ("iter", 1, 1, 2), ("iter", 1, 1, 3),
             ("single", 2, 2, 1), ("iter", 1, 1, 4), ("iter", 1, 1, 5),
             ("end", 1, 1, 5)])
        rows = _rows(events)
        assert [row for row in rows if row[0] == EV_ITERATION] \
            == [(EV_ITERATION, 1, 2, 2), (EV_ITERATION, 1, 4, 2)]
        assert len(rows) == 5
        assert_matches_reference(events, capacity, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_adjacent_starts_of_two_executions_are_two_rows(
            self, capacity, policy):
        # The detector always separates two executions' iteration
        # starts with another event; a hand-built list need not.
        events = _events(
            [("start", 1, 1, 0), ("start", 2, 2, 1), ("iter", 1, 1, 2),
             ("iter", 2, 2, 2), ("iter", 2, 2, 3), ("iter", 2, 2, 4),
             ("iter", 2, 2, 5), ("end", 2, 2, 5), ("end", 1, 1, 2)])
        assert [row for row in _rows(events) if row[0] == EV_ITERATION] \
            == [(EV_ITERATION, 1, 2, 1), (EV_ITERATION, 2, 2, 4)]
        assert_matches_reference(events, capacity, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_one(self, policy):
        # One loop executed three times fits a 1-entry table: the LET
        # hits on the third start and the LIT from each execution's
        # 4th start (2nd in the third execution); a nested loop then
        # contends for the single entry.
        script = []
        for exec_id in (1, 2, 3):
            script += _execution(7, exec_id, 5)
        script += ([("start", 8, 4, 0), ("iter", 8, 4, 2)]
                   + _execution(9, 5, 4, 1)
                   + [("iter", 8, 4, 3), ("iter", 8, 4, 4),
                      ("end", 8, 4, 4)])
        sim = assert_matches_reference(_events(script), 1, policy)
        assert sim.let_hits >= 1 and sim.lit_hits >= 6

    def test_empty_event_list(self):
        rows = TableRows().build(EventColumns())
        assert len(rows) == 0
        sim = TableHitRatioSimulator(2, 2).replay(EventColumns())
        assert sim.counters() == [0, 0, 0, 0]

    def test_rows_are_built_once_and_shared(self, loop_index):
        rows = TableRows()
        sims = [TableHitRatioSimulator(n, n).ensure_replayed(loop_index,
                                                             rows)
                for n in (2, 4)]
        kinds = rows.kinds
        assert len(rows) < len(loop_index.columns)
        sims.append(TableHitRatioSimulator(8, 8).ensure_replayed(
            loop_index, rows))
        assert rows.kinds is kinds
        for sim, n in zip(sims, (2, 4, 8)):
            assert sim.counters() == EventTableReplay(n, n).replay(
                index_events(loop_index)).counters()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 5), st.integers(1, 4),
           st.integers(1, 4), st.sampled_from([1, 2, 4]),
           st.sampled_from([POLICY_LRU, POLICY_NESTING_AWARE]))
    def test_random_nests_match_reference(self, outer, inner, modulus,
                                          calls, capacity, policy):
        m = Module("t")
        m.function("work", ["n"], [
            Assign("a", 0),
            For("k", 0, Var("n"), [Assign("a", Var("a") + Var("k"))]),
            Return(Var("a")),
        ])
        m.function("main", [], [
            Assign("x", 0),
            For("i", 0, outer, [
                For("j", 0, inner + Var("i") % modulus, [
                    Assign("x", Var("x") + CallExpr("work", Var("j"))),
                ]),
                For("r", 0, calls, [
                    Assign("x", Var("x") + CallExpr("work", Var("i"))),
                ]),
            ]),
            Return(Var("x")),
        ])
        assert_matches_reference(_events_for(compile_module(m)),
                                 capacity, policy)


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
