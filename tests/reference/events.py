"""Loop events as objects: the form the detector emitted before it
wrote :class:`~repro.core.events.EventColumns`, kept so tests can
state expectations one event at a time and so the per-record
references (``reference/cls.py``, ``reference/dataspec.py``,
``reference/tables.py``) stay literal.

:func:`to_columns` and :func:`to_records` turn an event list into the
columns and execution records the production CLS writes;
:func:`from_columns` reads event objects back out of columns, taking
each end's :class:`~repro.core.events.EndReason` from its record.
"""

from array import array

from repro.core.events import (
    EV_EXEC_END,
    EV_EXEC_START,
    EV_ITERATION,
    EV_SINGLE,
    EventColumns,
    LoopExecutionRecord,
)


class LoopEvent:
    """Base class; ``loop`` is the target address T identifying the loop."""

    __slots__ = ("seq", "loop", "exec_id")

    def __init__(self, seq, loop, exec_id):
        self.seq = seq
        self.loop = loop
        self.exec_id = exec_id

    def _fields(self):
        return "seq=%d loop=%d exec=%d" % (self.seq, self.loop,
                                           self.exec_id)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self._fields())


class ExecutionStart(LoopEvent):
    """A new loop execution was detected (second iteration beginning).

    ``depth`` is the 1-based CLS nesting depth of the new entry.
    """

    __slots__ = ("depth",)

    def __init__(self, seq, loop, exec_id, depth):
        super().__init__(seq, loop, exec_id)
        self.depth = depth

    def _fields(self):
        return super()._fields() + " depth=%d" % self.depth


class IterationStart(LoopEvent):
    """Iteration ``iteration`` (2-based for the first detected one) of an
    execution begins; the previous iteration just ended."""

    __slots__ = ("iteration",)

    def __init__(self, seq, loop, exec_id, iteration):
        super().__init__(seq, loop, exec_id)
        self.iteration = iteration

    def _fields(self):
        return super()._fields() + " iter=%d" % self.iteration


class ExecutionEnd(LoopEvent):
    """A loop execution terminated after ``iterations`` iterations."""

    __slots__ = ("iterations", "reason")

    def __init__(self, seq, loop, exec_id, iterations, reason):
        super().__init__(seq, loop, exec_id)
        self.iterations = iterations
        self.reason = reason

    def _fields(self):
        return super()._fields() + " iters=%d reason=%s" % (
            self.iterations, self.reason.value)


class SingleIteration(LoopEvent):
    """A not-taken backward branch to a loop not in the CLS: a complete
    one-iteration execution (detected only as it ends).  ``depth`` is the
    nesting depth it would have had (current CLS depth + 1)."""

    __slots__ = ("depth",)

    def __init__(self, seq, loop, exec_id, depth):
        super().__init__(seq, loop, exec_id)
        self.depth = depth

    def _fields(self):
        return super()._fields() + " depth=%d" % self.depth


_CODES = {IterationStart: EV_ITERATION, ExecutionStart: EV_EXEC_START,
          ExecutionEnd: EV_EXEC_END, SingleIteration: EV_SINGLE}


def _aux(event):
    etype = type(event)
    if etype is IterationStart:
        return event.iteration
    if etype is ExecutionEnd:
        return event.iterations
    return event.depth


def to_columns(events):
    """The :class:`EventColumns` of an ordered event list."""
    cols = EventColumns()
    for position, event in enumerate(events):
        etype = _CODES[type(event)]
        cols.append(etype, event.seq, event.loop, event.exec_id,
                    _aux(event))
        if etype == EV_ITERATION:
            cols.iteration_positions.setdefault(
                event.exec_id, array("q")).append(position)
    return cols


def to_records(events):
    """``exec_id`` -> :class:`LoopExecutionRecord` of an ordered event
    list, in start order."""
    executions = {}
    for event in events:
        etype = type(event)
        if etype is IterationStart:
            executions[event.exec_id].iter_seqs.append(event.seq)
        elif etype is ExecutionStart:
            executions[event.exec_id] = LoopExecutionRecord(
                event.exec_id, event.loop, event.seq, event.depth)
        elif etype is ExecutionEnd:
            rec = executions[event.exec_id]
            rec.end_seq = event.seq
            rec.iterations = event.iterations
            rec.reason = event.reason
        else:
            rec = LoopExecutionRecord(event.exec_id, event.loop,
                                      event.seq, event.depth)
            rec.end_seq = event.seq
            rec.iterations = 1
            executions[event.exec_id] = rec
    return executions


def from_columns(cols, executions, positions=None):
    """The event objects at *positions* of *cols* (every row when
    ``None``); an end's reason is its record's in *executions*."""
    if positions is None:
        positions = range(len(cols))
    events = []
    for i in positions:
        etype = cols.etypes[i]
        fields = (cols.seqs[i], cols.loops[i], cols.exec_ids[i],
                  cols.auxs[i])
        if etype == EV_ITERATION:
            events.append(IterationStart(*fields))
        elif etype == EV_EXEC_START:
            events.append(ExecutionStart(*fields))
        elif etype == EV_EXEC_END:
            events.append(ExecutionEnd(
                *fields, executions[cols.exec_ids[i]].reason))
        else:
            events.append(SingleIteration(*fields))
    return events


def index_events(index):
    """Every loop event of a :class:`~repro.core.detector.LoopIndex`
    as objects."""
    return from_columns(index.columns, index.executions)


def columns_state(cols):
    """Every column and the iteration positions, comparable with
    ``==``."""
    return (bytes(cols.etypes), list(cols.seqs), list(cols.loops),
            list(cols.exec_ids), list(cols.auxs),
            {exec_id: list(positions) for exec_id, positions
             in cols.iteration_positions.items()})


def records_state(executions):
    """Every field of every execution record, in ``exec_id`` order."""
    return [(exec_id, rec.exec_id, rec.loop, rec.start_seq,
             list(rec.iter_seqs), rec.end_seq, rec.iterations,
             rec.reason, rec.depth)
            for exec_id, rec in executions.items()]
