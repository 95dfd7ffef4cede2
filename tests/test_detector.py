"""Integration tests: compiled mini-language programs through the tracer
and the loop detector, checking detected loop structure end to end."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    EndReason,
    LoopDetector,
    compute_loop_statistics,
)
from repro.core.events import EV_EXEC_END, EV_EXEC_START, EV_SINGLE
from repro.cpu import trace_control_flow
from repro.lang import (
    Assign,
    Break,
    CallExpr,
    DoWhile,
    ExprStmt,
    For,
    If,
    Module,
    Return,
    Var,
    While,
    compile_module,
)
from repro.search.corpus import frontier_names
from repro.workloads import SUITE_ORDER, get

from capture import workload_trace
from records import iter_records, prefix
from reference import cut
from reference.events import columns_state, index_records, records_state


def detect(module, cls_capacity=16):
    trace = trace_control_flow(compile_module(module))
    assert trace.halted
    return LoopDetector(cls_capacity=cls_capacity).run(trace)


def single_loop_records(index):
    return sorted(index_records(index).values(), key=lambda r: r.start_seq)


class TestSimplePrograms:
    def test_counted_loop_one_execution(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 10, [Assign("x", Var("i"))]),
            Return(0),
        ])
        index = detect(m)
        recs = single_loop_records(index)
        assert len(recs) == 1
        rec = recs[0]
        assert rec.iterations == 10
        assert rec.reason is EndReason.NOT_TAKEN
        assert rec.detected_iterations == 9    # first one undetected

    def test_iteration_lengths_uniform_for_fixed_body(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 8, [Assign("x", Var("i") * 2 + 1)]),
            Return(0),
        ])
        index = detect(m)
        lengths = single_loop_records(index)[0].iteration_lengths()
        assert len(set(lengths)) == 1          # identical control flow

    def test_nested_loops_executions(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 5, [
                For("j", 0, 4, [Assign("x", Var("j"))]),
            ]),
            Return(0),
        ])
        index = detect(m)
        recs = single_loop_records(index)
        outer = [r for r in recs if r.iterations == 5]
        inner = [r for r in recs if r.iterations == 4]
        assert len(outer) == 1
        assert len(inner) == 5                 # one execution per outer iter
        assert len({r.loop for r in recs}) == 2
        # The first inner execution predates the outer loop's detection
        # (the outer is only detected at its first closing branch), so it
        # records depth 1; all later ones nest at depth 2.
        assert [r.depth for r in inner] == [1, 2, 2, 2, 2]
        assert outer[0].depth == 1

    def test_single_iteration_loop_detected_at_close(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 1, [Assign("x", Var("i"))]),
            Return(0),
        ])
        index = detect(m)
        recs = single_loop_records(index)
        assert len(recs) == 1
        assert recs[0].iterations == 1
        assert recs[0].detected_iterations == 0

    def test_zero_trip_loop_invisible(self):
        m = Module("t")
        m.function("main", [], [
            Assign("n", 0),
            While(Var("i") < Var("n"), [Assign("i", Var("i") + 1)]),
            Return(0),
        ])
        index = detect(m)
        assert len(index) == 0

    def test_break_exit_reason(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 100, [If(Var("i").eq(5), [Break()])]),
            Return(0),
        ])
        index = detect(m)
        rec = single_loop_records(index)[0]
        assert rec.reason is EndReason.EXIT
        assert rec.iterations == 6             # i = 0..5

    def test_return_exit_counts_as_exit_jump(self):
        # `Return` inside a loop compiles to a forward jump to the
        # epilogue, so the loop ends by the exit rule before `ret` runs.
        m = Module("t")
        m.function("f", [], [
            For("i", 0, 100, [If(Var("i").eq(3), [Return(Var("i"))])]),
            Return(-1),
        ])
        m.function("main", [], [Return(CallExpr("f"))])
        index = detect(m)
        rec = single_loop_records(index)[0]
        assert rec.reason is EndReason.EXIT
        assert rec.iterations == 4

    def test_dowhile_detected(self):
        m = Module("t")
        m.function("main", [], [
            Assign("i", 0),
            DoWhile([Assign("i", Var("i") + 1)], Var("i") < 6),
            Return(0),
        ])
        index = detect(m)
        rec = single_loop_records(index)[0]
        assert rec.iterations == 6

    def test_loops_inside_called_function(self):
        m = Module("t")
        m.function("work", ["n"], [
            Assign("acc", 0),
            For("i", 0, Var("n"), [Assign("acc", Var("acc") + Var("i"))]),
            Return(Var("acc")),
        ])
        m.function("main", [], [
            Assign("total", 0),
            For("k", 0, 3, [
                Assign("total", Var("total") + CallExpr("work", 5)),
            ]),
            Return(Var("total")),
        ])
        index = detect(m)
        recs = single_loop_records(index)
        callee = [r for r in recs if r.iterations == 5]
        outer = [r for r in recs if r.iterations == 3]
        assert len(callee) == 3
        assert len(outer) == 1
        # Loops of a called subroutine nest inside the calling loop (the
        # first callee execution predates the caller loop's detection).
        assert [r.depth for r in callee] == [1, 2, 2]

    def test_recursive_function_loop_depths_fold(self):
        # A loop inside a recursive function: instantiations from deeper
        # activations fold into the same CLS entry (paper section 2.2).
        m = Module("t")
        m.function("r", ["n"], [
            If(Var("n") <= 0, [Return(0)]),
            For("i", 0, 3, [Assign("x", Var("i"))]),
            Return(CallExpr("r", Var("n") - 1)),
        ])
        m.function("main", [], [Return(CallExpr("r", 4))])
        index = detect(m)
        recs = single_loop_records(index)
        assert len({r.loop for r in recs}) == 1
        assert len(recs) == 4
        assert all(r.iterations == 3 for r in recs)


class TestLoopStatistics:
    def test_table1_shape(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 6, [
                For("j", 0, 10, [Assign("x", Var("j"))]),
            ]),
            Return(0),
        ])
        index = detect(m)
        stats = compute_loop_statistics(index, name="demo")
        assert stats.static_loops == 2
        assert stats.executions == 7           # 1 outer + 6 inner
        assert stats.iterations == 6 + 6 * 10
        assert stats.max_nesting == 2
        assert 1.0 < stats.average_nesting < 2.0
        row = stats.as_row()
        assert row[0] == "demo"
        assert len(row) == len(stats.ROW_HEADERS)

    def test_instr_per_iter_positive(self):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, 50, [Assign("x", Var("i") * 3)]),
            Return(0),
        ])
        stats = compute_loop_statistics(detect(m))
        assert stats.instructions_per_iteration > 0
        assert stats.iterations_per_execution == 50

    def test_empty_trace_statistics(self):
        m = Module("t")
        m.function("main", [], [Return(0)])
        stats = compute_loop_statistics(detect(m))
        assert stats.static_loops == 0
        assert stats.iterations_per_execution == 0.0
        assert stats.instructions_per_iteration == 0.0


class TestStructuredProgramInvariants:
    """Property: for compiler-emitted (structured) control flow, every
    loop execution terminates before the trace ends -- the CLS drains on
    its own, matching the paper's observation that the CLS is always
    empty at the end of SPEC95 runs."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.integers(1, 4))
    def test_cls_empty_at_halt(self, trip_counts, repeat):
        m = Module("t")
        body = [Assign("x", Var("x") + 1)]
        for depth, trips in enumerate(trip_counts):
            body = [For("v%d" % depth, 0, trips, body)]
        m.function("main", [], [Assign("x", 0)] + body * repeat
                   + [Return(Var("x"))])
        trace = trace_control_flow(compile_module(m))
        detector = LoopDetector()
        for batch in cut(iter_records(trace), 1):
            detector.feed_batch(batch)
        assert detector.cls.entries == []
        flush_events = detector.finish(trace.total_instructions)
        assert len(flush_events) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 30), st.integers(2, 8))
    def test_counts_match_ground_truth(self, outer_trips, inner_trips):
        m = Module("t")
        m.function("main", [], [
            For("i", 0, outer_trips, [
                For("j", 0, inner_trips, [Assign("x", Var("j"))]),
            ]),
            Return(0),
        ])
        index = detect(m)
        recs = single_loop_records(index)
        by_loop = {}
        for rec in recs:
            by_loop.setdefault(rec.loop, []).append(rec)
        assert len(by_loop) == 2
        outer_loop = min(by_loop, key=lambda t: len(by_loop[t]))
        outer = by_loop.pop(outer_loop)
        (inner,) = by_loop.values()
        assert len(outer) == 1 and outer[0].iterations == outer_trips
        assert len(inner) == outer_trips
        assert all(r.iterations == inner_trips for r in inner)
        # Every start/end is consistent.
        for rec in recs:
            assert rec.end_seq is not None
            assert rec.end_seq >= rec.start_seq
            assert rec.iterations >= 1


class TestIterableInput:
    """A plain record iterable goes through run_batches with an explicit
    total; run() takes only a CFTrace, and batch boundaries carry no
    meaning."""

    def _trace(self):
        return workload_trace(get("swim"), max_instructions=20_000)

    def test_iterable_with_total_matches_trace(self):
        trace = self._trace()
        from_trace = LoopDetector().run(trace)
        from_iter = LoopDetector().run_batches(
            cut(iter_records(trace), 1), trace.total_instructions)
        assert len(from_iter) == len(from_trace)
        assert columns_state(from_iter.columns) \
            == columns_state(from_trace.columns)
        assert records_state(index_records(from_iter)) \
            == records_state(index_records(from_trace))
        assert from_iter.total_instructions \
            == from_trace.total_instructions

    def test_iterable_without_total_rejected(self):
        trace = self._trace()
        with pytest.raises(AttributeError):
            LoopDetector().run(iter_records(trace))
        with pytest.raises(TypeError):
            LoopDetector().run(iter_records(trace),
                               trace.total_instructions)


def assert_every_execution_ends(index):
    """Every execution of *index* has an end row after its start row:
    an execution end of that execution carrying a reason, or, for a
    single iteration, its own ``EV_SINGLE`` row.  The speculation walk
    and the statistics read iteration counts and end seqs there."""
    cols = index.columns
    assert len(cols.start_rows) == len(cols.end_rows) \
        == len(cols.end_reasons) == len(index)
    for exec_id, (start, end, reason) in enumerate(zip(
            cols.start_rows, cols.end_rows, cols.end_reasons)):
        assert 0 <= start <= end < len(cols), exec_id
        assert cols.exec_ids[start] == cols.exec_ids[end] == exec_id
        if cols.etypes[start] == EV_SINGLE:
            assert (end, reason) == (start, 0), exec_id
        else:
            assert cols.etypes[start] == EV_EXEC_START, exec_id
            assert cols.etypes[end] == EV_EXEC_END, exec_id
            assert reason in set(EndReason), exec_id


class TestIndexPrefix:
    """``LoopIndex.prefix(limit)`` equals a real walk of the records
    with ``seq < limit`` finished at *limit*: every column, the
    iteration positions and every execution record, on every analog
    and frontier case, at limits on and next to a batch seam; the
    canonical index is left as it was, and in it and in every prefix
    every execution has an end row."""

    @pytest.mark.parametrize("capacity", (16, 2))
    @pytest.mark.parametrize("name", list(SUITE_ORDER) + frontier_names())
    def test_prefix_equals_a_prefix_walk(self, name, capacity):
        trace = workload_trace(get(name), 1, 60_000)
        total = trace.total_instructions
        records = list(iter_records(trace))
        batches = cut(records, len(records) // 3 + 1)
        canonical = LoopDetector(cls_capacity=capacity).run_batches(
            batches, total)
        assert_every_execution_ends(canonical)
        before = (columns_state(canonical.columns),
                  records_state(index_records(canonical)))
        seam = batches[1].seqs[0]
        for limit in (1, seam, seam + 1, total // 4, total // 2 + 7,
                      total):
            walker = LoopDetector(cls_capacity=capacity)
            for batch in batches:
                walker.feed_batch(prefix(batch, limit))
            walker.finish(limit)
            walked = walker.index(limit)
            got = canonical.prefix(limit)
            assert columns_state(got.columns) \
                == columns_state(walked.columns), limit
            assert records_state(index_records(got)) \
                == records_state(index_records(walked)), limit
            assert_every_execution_ends(got)
            assert got.total_instructions == limit
            assert got.cls_capacity == capacity
        assert (columns_state(canonical.columns),
                records_state(index_records(canonical))) == before


class TestOverflowIdentity:
    """Every CLS overflow ends exactly one execution, with
    ``EndReason.OVERFLOW``, so the loop index alone counts a CLS's
    overflows (the CLS-capacity ablation relies on it)."""

    @pytest.mark.parametrize("name", list(SUITE_ORDER) + frontier_names())
    def test_overflow_executions_equal_overflow_count(self, name):
        trace = workload_trace(get(name), 1)
        for capacity in (2, 4, 16):
            detector = LoopDetector(cls_capacity=capacity)
            index = detector.run(trace)
            ended = sum(1 for rec in index_records(index).values()
                        if rec.reason is EndReason.OVERFLOW)
            assert ended == detector.cls.overflow_count, capacity
