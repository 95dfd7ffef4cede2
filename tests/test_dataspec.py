"""Tests for the data-speculation study (paths, live-ins, Figure 8)."""

from repro.core.dataspec import (
    DataSpecStats,
    DataSpeculationAnalyzer,
    PathProfile,
)
from repro.cpu import trace_full
from repro.lang import (
    Assign,
    For,
    If,
    Index,
    Module,
    Return,
    Store,
    Var,
    compile_module,
)

from reference.dataspec import IterationTracker, PathSignature


def analyze(module, name="t"):
    trace = trace_full(compile_module(module), max_instructions=2_000_000)
    assert trace.halted
    return DataSpeculationAnalyzer().analyze(trace, name)


class TestPathSignature:
    def test_same_sequence_same_digest(self):
        a, b = PathSignature(), PathSignature()
        for sig in (a, b):
            sig.update(10, True)
            sig.update(20, False)
        assert a.digest() == b.digest()

    def test_direction_changes_digest(self):
        a, b = PathSignature(), PathSignature()
        a.update(10, True)
        b.update(10, False)
        assert a.digest() != b.digest()

    def test_order_matters(self):
        a, b = PathSignature(), PathSignature()
        a.update(10, True)
        a.update(20, True)
        b.update(20, True)
        b.update(10, True)
        assert a.digest() != b.digest()


class TestPathProfile:
    def test_most_frequent(self):
        p = PathProfile()
        for _ in range(8):
            p.record(1, "A")
        for _ in range(2):
            p.record(1, "B")
        assert p.most_frequent(1) == "A"
        assert p.iterations(1) == 10

    def test_empty_profile(self):
        p = PathProfile()
        assert p.most_frequent(1) is None
        assert p.total_iterations() == 0


class TestAnalyzerOnPrograms:
    def test_straight_line_loop_single_path(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 40, [Assign("acc", Var("acc") + Var("i"))]),
            Return(Var("acc")),
        ])
        stats = analyze(m)
        assert stats.same_path > 0.9
        assert stats.total_iterations > 0

    def test_induction_variable_live_ins_predictable(self):
        # Live-ins of each iteration (i, acc) advance by fixed strides,
        # so last+stride prediction should be nearly perfect.
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 60, [Assign("acc", Var("acc") + 2)]),
            Return(Var("acc")),
        ])
        stats = analyze(m)
        assert stats.lr_pred > 0.85
        assert stats.all_lr > 0.8

    def test_data_dependent_live_ins_unpredictable(self):
        # acc accumulates table values that follow no arithmetic stride.
        # The compiler keeps scalars in frame memory, so the accumulator
        # appears as a live-in memory location: "all lm" and "all data"
        # collapse while frame-pointer registers stay predictable.
        m = Module("t")
        m.array("tbl", 64, init=[(i * 37) % 101 for i in range(64)])
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 64, [
                Assign("acc", Var("acc") + Index("tbl", Var("i"))),
            ]),
            Return(Var("acc")),
        ])
        stats = analyze(m)
        assert stats.all_data < 0.3
        assert stats.lm_pred < stats.lr_pred

    def test_memory_live_ins_tracked(self):
        m = Module("t")
        m.array("a", 32, init=list(range(0, 64, 2)))
        m.function("main", [], [
            Assign("s", 0),
            For("i", 0, 32, [Assign("s", Var("s") + Index("a", Var("i")))]),
            Return(Var("s")),
        ])
        stats = analyze(m)
        assert stats.lm_total > 0
        # The array values stride by 2 and the induction variable by 1;
        # the running sum's stride changes, so roughly two thirds of the
        # live-in memory values predict correctly.
        assert 0.55 < stats.lm_pred < 0.85
        # Live-in addresses are constant frame slots or unit strides.
        assert stats.lm_addr_pred > 0.8

    def test_memory_written_before_read_not_live_in(self):
        # Unit-level check: an address stored before it is loaded within
        # the iteration must not be recorded as a live-in.
        from repro.trace import FullRecord
        tracker = IterationTracker(loop=10, exec_id=0, iteration=2)
        tracker.observe(FullRecord(0, 11, 0, False, None,
                                   (), (), (), ((500, 7),)))   # store 500
        tracker.observe(FullRecord(1, 12, 0, False, None,
                                   (), (), ((500, 7),), ()))   # load 500
        tracker.observe(FullRecord(2, 13, 0, False, None,
                                   (), (), ((600, 9),), ()))   # load 600
        obs = tracker.finalize()
        assert 12 not in obs.live_mem          # written before read
        assert obs.live_mem[13] == (600, 9)    # genuine live-in

    def test_register_written_before_read_not_live_in(self):
        from repro.trace import FullRecord
        tracker = IterationTracker(loop=10, exec_id=0, iteration=2)
        tracker.observe(FullRecord(0, 11, 0, False, None,
                                   (), ((10, 5),), (), ()))    # write t0
        tracker.observe(FullRecord(1, 12, 0, False, None,
                                   ((10, 5), (11, 8)), (), (), ()))
        obs = tracker.finalize()
        assert 10 not in obs.live_regs
        assert obs.live_regs[11] == 8

    def test_branchy_loop_splits_paths(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 50, [
                If(Var("i") % 3, [Assign("acc", Var("acc") + 1)],
                   [Assign("acc", Var("acc") + 7)]),
            ]),
            Return(Var("acc")),
        ])
        stats = analyze(m)
        assert 0.3 < stats.same_path < 0.9

    def test_merge_accumulates_counters(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 30, [Assign("acc", Var("acc") + 1)]),
            Return(Var("acc")),
        ])
        a = analyze(m)
        b = analyze(m)
        total_before = a.total_iterations
        a.merge(b)
        assert a.total_iterations == 2 * total_before
        assert 0.0 <= a.same_path <= 1.0

    def test_figure8_row_shape(self):
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 30, [Assign("acc", Var("acc") + 1)]),
            Return(Var("acc")),
        ])
        stats = analyze(m, name="demo")
        row = stats.as_row()
        assert row[0] == "demo"
        assert len(row) == len(DataSpecStats.FIGURE8_HEADERS)
        assert all(0.0 <= v <= 100.0 for v in row[1:])
