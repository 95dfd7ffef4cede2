"""Unit tests for the Current Loop Stack against the paper's definitions
(section 2), including the Figure 2 nested/overlapped scenarios and the
recursive-subroutine folding case."""

import pytest

from repro.core import (
    CurrentLoopStack,
    EndReason,
    ExecutionEnd,
    ExecutionStart,
    IterationStart,
    SingleIteration,
)
from repro.isa import InstrKind
from repro.trace import CFRecord, RecordBatch

BR = int(InstrKind.BRANCH)
JMP = int(InstrKind.JUMP)
CALL = int(InstrKind.CALL)
RET = int(InstrKind.RET)


class Feeder:
    """Feeds synthetic control transfers, each as a one-record batch,
    with automatic sequence numbers."""

    def __init__(self, cls=None):
        self.cls = cls if cls is not None else CurrentLoopStack()
        self.seq = 0
        self.events = []

    def step(self, pc, kind, taken, target, gap=1):
        self.seq += gap
        events = self.cls.process_batch(RecordBatch.from_records(
            [CFRecord(self.seq, pc, kind, taken, target)]))
        self.events.extend(events)
        return events

    def branch(self, pc, target, taken, gap=1):
        return self.step(pc, BR, taken, target, gap)

    def jump(self, pc, target, gap=1):
        return self.step(pc, JMP, True, target, gap)

    def call(self, pc, target, gap=1):
        return self.step(pc, CALL, True, target, gap)

    def ret(self, pc, target=0, gap=1):
        return self.step(pc, RET, True, target, gap)

    def flush(self):
        events = self.cls.flush(self.seq + 1)
        self.events.extend(events)
        return events

    def of_type(self, etype):
        return [e for e in self.events if type(e) is etype]


class TestSimpleLoop:
    def test_counted_loop_lifecycle(self):
        f = Feeder()
        # Loop body [10, 20], 4 iterations: 3 taken closers + 1 not taken.
        for _ in range(3):
            f.branch(20, 10, taken=True, gap=11)
        f.branch(20, 10, taken=False, gap=11)

        starts = f.of_type(ExecutionStart)
        iters = f.of_type(IterationStart)
        ends = f.of_type(ExecutionEnd)
        assert len(starts) == 1
        assert [e.iteration for e in iters] == [2, 3, 4]
        assert len(ends) == 1
        assert ends[0].iterations == 4
        assert ends[0].reason is EndReason.NOT_TAKEN
        assert len(f.cls) == 0

    def test_first_iteration_undetected(self):
        f = Feeder()
        events = f.branch(20, 10, taken=True)
        # Detection happens at the close of iteration 1: execution start
        # and the start of iteration 2 share the event.
        assert [type(e) for e in events] == [ExecutionStart, IterationStart]
        assert events[1].iteration == 2

    def test_single_iteration_loop(self):
        f = Feeder()
        events = f.branch(20, 10, taken=False)
        assert len(events) == 1
        assert type(events[0]) is SingleIteration
        assert len(f.cls) == 0

    def test_not_taken_inner_backward_branch_no_action(self):
        f = Feeder()
        f.branch(20, 10, taken=True)         # loop [10, 20] established
        # A not-taken backward branch to 10 at pc 15 (< B): continue.
        events = f.branch(15, 10, taken=False)
        assert events == []
        assert len(f.cls) == 1

    def test_b_field_updated_by_higher_closing_branch(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        assert f.cls.top.b == 20
        f.branch(25, 10, taken=True)         # second closer, higher address
        assert f.cls.top.b == 25
        # Not-taken at the *old* B no longer terminates (B=25 > 20)?
        # Careful: rule is B <= PC terminates; pc=20 < 25 -> continue.
        events = f.branch(20, 10, taken=False)
        assert events == []
        # Not taken at pc >= B terminates.
        events = f.branch(25, 10, taken=False)
        assert any(type(e) is ExecutionEnd for e in events)

    def test_exit_via_forward_branch(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        events = f.branch(15, 50, taken=True)    # break out of [10, 20]
        assert len(events) == 1
        assert events[0].reason is EndReason.EXIT
        assert len(f.cls) == 0

    def test_exit_via_forward_jump(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        events = f.jump(15, 99)
        assert events and events[0].reason is EndReason.EXIT

    def test_forward_branch_inside_body_keeps_loop(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        assert f.branch(12, 18, taken=True) == []    # stays inside [10,20]
        assert len(f.cls) == 1

    def test_exit_via_return(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        events = f.ret(15)
        assert events and events[0].reason is EndReason.RETURN
        assert len(f.cls) == 0

    def test_return_outside_body_keeps_loop(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        assert f.ret(40) == []
        assert len(f.cls) == 1

    def test_calls_never_touch_cls(self):
        f = Feeder()
        f.branch(20, 10, taken=True)
        assert f.call(15, 100) == []
        assert f.call(15, 5) == []        # even a backward call
        assert len(f.cls) == 1


class TestNestedLoops:
    """Figure 2a/2b: T1 < T2 <= B2 < B1."""

    def _enter_nested(self, f):
        # Inner loop [20, 30] iterates 3 times, then outer [10, 40] closes.
        f.branch(30, 20, taken=True)
        f.branch(30, 20, taken=True)
        f.branch(30, 20, taken=False)
        f.branch(40, 10, taken=True)

    def test_inner_completes_per_outer_iteration(self):
        f = Feeder()
        self._enter_nested(f)
        assert [e.loop for e in f.of_type(ExecutionStart)] == [20, 10]
        inner_end = f.of_type(ExecutionEnd)[0]
        assert inner_end.loop == 20
        assert inner_end.iterations == 3
        assert f.cls.current_loops() == [10]

    def test_second_outer_iteration_renews_inner_execution(self):
        f = Feeder()
        self._enter_nested(f)
        f.branch(30, 20, taken=True)      # inner again, new execution
        starts = f.of_type(ExecutionStart)
        assert [e.loop for e in starts] == [20, 10, 20]
        assert starts[0].exec_id != starts[2].exec_id
        assert f.cls.current_loops() == [10, 20]

    def test_new_outer_push_leaves_disjoint_inner_stacked(self):
        f = Feeder()
        f.branch(30, 20, taken=True)      # inner [20, 30]
        # A first outer closing branch beyond the inner body: pc=40 lies
        # outside [20, 30], so the exit rule does not fire and the inner
        # entry stays (it will be cleaned up by a later outer event).
        events = f.branch(40, 10, taken=True)
        assert not [e for e in events if type(e) is ExecutionEnd]
        assert f.cls.current_loops() == [20, 10]

    def test_outer_not_taken_close_pops_inner_first(self):
        f = Feeder()
        f.branch(40, 10, taken=True)      # outer established
        f.branch(30, 20, taken=True)      # inner established
        events = f.branch(40, 10, taken=False)
        kinds = [(type(e), e.loop) for e in events]
        assert kinds == [(ExecutionEnd, 20), (ExecutionEnd, 10)]
        assert events[0].reason is EndReason.OUTER
        assert events[1].reason is EndReason.NOT_TAKEN

    def test_nesting_depths_recorded(self):
        f = Feeder()
        f.branch(40, 10, taken=True)
        f.branch(30, 20, taken=True)
        starts = f.of_type(ExecutionStart)
        assert [e.depth for e in starts] == [1, 2]

    def test_return_pops_only_containing_loops(self):
        f = Feeder()
        f.branch(40, 10, taken=True)        # outer [10, 40]
        f.branch(30, 20, taken=True)        # inner [20, 30]
        events = f.ret(35)                  # inside outer, outside inner
        assert [e.loop for e in events] == [10]
        assert f.cls.current_loops() == [20]


class TestOverlappedLoops:
    """Figure 2c/2d: T1 < T2 < B1 < B2."""

    def test_interleaved_executions(self):
        """Executions of overlapped loops interleave (Figure 2d): the
        closing branch of T1 lies inside T2's body but targets outside
        it, so each re-entry of T1 terminates T2's current execution."""
        f = Feeder()
        # T1=10, B1=30; T2=20, B2=40.
        f.branch(30, 10, taken=True)      # execution of loop 10 begins
        f.branch(30, 10, taken=False)     # ... and ends
        f.branch(40, 20, taken=True)      # execution of loop 20 begins
        # Inside loop 20's body the closing branch of loop 10 fires: by
        # termination rule (ii) loop 20's execution ends, and a fresh
        # execution of loop 10 starts.
        events = f.branch(30, 10, taken=True)
        ends = [e for e in events if type(e) is ExecutionEnd]
        assert [(e.loop, e.reason) for e in ends] == [(20, EndReason.EXIT)]
        assert f.cls.current_loops() == [10]
        f.branch(30, 10, taken=False)     # loop 10 ends again
        f.branch(40, 20, taken=True)      # a second execution of loop 20
        starts = [e.loop for e in f.of_type(ExecutionStart)]
        assert starts == [10, 20, 10, 20]

    def test_iteration_of_stacked_loop_exits_overlapped_one(self):
        """The exit rule also fires when the branch closes a loop that is
        already stacked (not just on a fresh push)."""
        f = Feeder()
        f.branch(40, 20, taken=True)      # loop 20: body [20, 40]
        # Loop 10 established by a closer outside loop 20's body, so
        # both coexist: stack holds [20, 10].
        f.branch(45, 10, taken=True)
        assert f.cls.current_loops() == [20, 10]
        # Loop 10 iterates via a closer at pc=30, *inside* [20, 40]:
        # loop 10 iterates and loop 20's execution terminates (rule ii).
        events = f.branch(30, 10, taken=True)
        iters = [e for e in events if type(e) is IterationStart]
        ends = [e for e in events if type(e) is ExecutionEnd]
        assert [e.loop for e in iters] == [10]
        assert [(e.loop, e.reason) for e in ends] == [(20, EndReason.EXIT)]
        assert f.cls.current_loops() == [10]


class TestRecursionFolding:
    def test_paper_recursive_subroutine_scenario(self):
        """The s() { if .. for s() /*T1*/ else for s() /*T2*/ } case:
        re-iterating T1 while T2 is stacked pops T2."""
        f = Feeder()
        f.branch(30, 10, taken=True)      # T1 established ([10, 30])
        f.call(15, 100)                   # recursive activation
        f.branch(130, 110, taken=True)    # T2 established ([110, 130])
        f.call(115, 100)                  # recurse again
        # T1's closing branch executes in the new activation: T1 is in
        # the CLS, so this is "a new iteration of T1"; T2 pops.
        events = f.branch(30, 10, taken=True)
        ends = [e for e in events if type(e) is ExecutionEnd]
        assert [e.loop for e in ends] == [110]
        assert ends[0].reason is EndReason.OUTER
        iters = [e for e in events if type(e) is IterationStart]
        assert len(iters) == 1 and iters[0].loop == 10
        assert f.cls.current_loops() == [10]

    def test_same_loop_not_duplicated_in_cls(self):
        f = Feeder()
        f.branch(30, 10, taken=True)
        f.branch(30, 10, taken=True)
        assert f.cls.current_loops() == [10]
        assert len(f.of_type(ExecutionStart)) == 1


class TestCapacityAndFlush:
    def test_overflow_drops_deepest(self):
        f = Feeder(CurrentLoopStack(capacity=2))
        f.branch(100, 90, taken=True)
        f.branch(80, 70, taken=True)
        events = f.branch(60, 50, taken=True)
        overflow = [e for e in events if type(e) is ExecutionEnd]
        assert [e.loop for e in overflow] == [90]
        assert overflow[0].reason is EndReason.OVERFLOW
        assert f.cls.current_loops() == [70, 50]
        assert f.cls.overflow_count == 1

    def test_flush_terminates_all(self):
        f = Feeder()
        f.branch(40, 10, taken=True)
        f.branch(30, 20, taken=True)
        events = f.flush()
        assert [e.loop for e in events] == [20, 10]
        assert all(e.reason is EndReason.FLUSH for e in events)
        assert len(f.cls) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CurrentLoopStack(capacity=0)


class TestEventConsistency:
    def test_every_start_has_exactly_one_end(self):
        f = Feeder()
        f.branch(30, 20, taken=True)
        f.branch(30, 20, taken=False)
        f.branch(40, 10, taken=True)
        f.branch(30, 20, taken=True)
        f.branch(40, 10, taken=False)
        f.flush()
        starts = {e.exec_id for e in f.of_type(ExecutionStart)}
        ends = [e.exec_id for e in f.of_type(ExecutionEnd)]
        assert sorted(ends) == sorted(starts)
        assert len(set(ends)) == len(ends)

    def test_exec_ids_unique_across_kinds(self):
        f = Feeder()
        f.branch(30, 20, taken=False)     # single-iteration execution
        f.branch(30, 20, taken=True)      # stacked execution
        ids = [e.exec_id for e in f.events
               if type(e) in (SingleIteration, ExecutionStart)]
        assert len(ids) == len(set(ids)) == 2

    def test_seq_monotone_nondecreasing(self):
        f = Feeder()
        for pc, tgt, taken in ((30, 20, True), (30, 20, True),
                               (40, 10, True), (30, 20, True),
                               (35, 99, True)):
            f.branch(pc, tgt, taken=taken)
        f.flush()
        seqs = [e.seq for e in f.events]
        assert seqs == sorted(seqs)
