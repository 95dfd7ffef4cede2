"""Property-based tests: CLS invariants under arbitrary control-transfer
sequences, and detector/event-stream consistency."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    CurrentLoopStack,
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

# Arbitrary control transfers over a small pc space so collisions
# (revisited loops, overlaps, weird exits) actually happen.
_transfer = st.tuples(
    st.integers(0, 60),                      # pc
    st.sampled_from([BR, BR, BR, JMP, CALL, RET]),
    st.booleans(),                           # taken
    st.integers(0, 60),                      # target
)


def drive(cls, transfers):
    """Feed *transfers* one-record batch at a time; returns the events."""
    events = []
    for seq, (pc, kind, taken, target) in enumerate(transfers):
        if kind in (JMP, CALL, RET):
            taken = True
        cls.process_batch(RecordBatch.from_records(
            [CFRecord(seq, pc, kind, taken, target)]), events)
    return events


class TestCLSInvariants:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_transfer, max_size=120))
    def test_capacity_never_exceeded(self, transfers):
        cls = CurrentLoopStack(capacity=4)
        drive(cls, transfers)
        assert len(cls) <= 4

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_transfer, max_size=120))
    def test_entries_unique_and_well_formed(self, transfers):
        cls = CurrentLoopStack()
        drive(cls, transfers)
        targets = [entry.t for entry in cls.entries]
        assert len(targets) == len(set(targets))
        for entry in cls.entries:
            assert entry.t <= entry.b
            assert entry.iteration >= 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_transfer, max_size=120))
    def test_every_start_eventually_ends(self, transfers):
        cls = CurrentLoopStack()
        events = drive(cls, transfers)
        events.extend(cls.flush(len(transfers)))
        started = [e.exec_id for e in events
                   if isinstance(e, ExecutionStart)]
        ended = [e.exec_id for e in events if isinstance(e, ExecutionEnd)]
        assert sorted(started) == sorted(ended)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_transfer, max_size=120))
    def test_exec_ids_unique(self, transfers):
        cls = CurrentLoopStack()
        events = drive(cls, transfers)
        events.extend(cls.flush(len(transfers)))
        ids = [e.exec_id for e in events
               if isinstance(e, (ExecutionStart, SingleIteration))]
        assert len(ids) == len(set(ids))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_transfer, max_size=120))
    def test_iterations_monotone_per_execution(self, transfers):
        cls = CurrentLoopStack()
        events = drive(cls, transfers)
        events.extend(cls.flush(len(transfers)))
        last_iteration = {}
        for event in events:
            if isinstance(event, IterationStart):
                prev = last_iteration.get(event.exec_id, 1)
                assert event.iteration == prev + 1
                last_iteration[event.exec_id] = event.iteration
            elif isinstance(event, ExecutionEnd):
                expected = last_iteration.get(event.exec_id, None)
                if expected is not None:
                    assert event.iterations == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_transfer, max_size=120))
    def test_event_seqs_nondecreasing(self, transfers):
        cls = CurrentLoopStack()
        events = drive(cls, transfers)
        events.extend(cls.flush(len(transfers)))
        seqs = [e.seq for e in events]
        assert seqs == sorted(seqs)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_transfer, max_size=100))
    def test_calls_are_invisible(self, transfers):
        """Replacing every CALL with nothing yields identical events."""
        cls_a = CurrentLoopStack()
        events_a = drive(cls_a, transfers)
        cls_b = CurrentLoopStack()
        events_b = drive(cls_b, [t for t in transfers if t[1] != CALL])
        # Event *kinds/loops* match; seq numbers differ by construction.
        sig_a = [(type(e).__name__, e.loop) for e in events_a]
        sig_b = [(type(e).__name__, e.loop) for e in events_b]
        assert sig_a == sig_b

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_transfer, max_size=100), st.integers(1, 6))
    def test_small_capacity_only_splits_executions(self, transfers, cap):
        """A capacity-limited CLS never invents loop activity: wherever
        it reports an execution start, the unlimited stack reports
        either the same start or an iteration of the same loop (an
        overflow-dropped loop is re-detected mid-execution, splitting
        one execution in two)."""
        unlimited = CurrentLoopStack(capacity=10_000)
        limited = CurrentLoopStack(capacity=cap)
        events_u = drive(unlimited, transfers)
        events_l = drive(limited, transfers)
        activity_u = {(e.seq, e.loop) for e in events_u
                      if isinstance(e, (ExecutionStart, IterationStart))}
        starts_l = [(e.seq, e.loop) for e in events_l
                    if isinstance(e, ExecutionStart)]
        assert set(starts_l) <= activity_u
