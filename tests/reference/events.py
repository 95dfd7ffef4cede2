"""Loop events and execution records as objects: the forms the
detector built before it wrote only
:class:`~repro.core.events.EventColumns`, kept so tests can state
expectations one event or one execution at a time and so the
per-record references (``reference/cls.py``, ``reference/dataspec.py``,
``reference/tables.py``, ``reference/speculation.py``) stay literal.

:func:`to_columns` and :func:`to_records` turn an event list into the
columns the production CLS writes and into execution records;
:func:`from_columns` reads event objects back out of columns, and
:func:`column_records` (:func:`index_records` for an index) execution
records, each field read from the row that holds it.
"""

from array import array

from repro.core.events import (
    EV_EXEC_END,
    EV_EXEC_START,
    EV_ITERATION,
    EV_SINGLE,
    EndReason,
    EventColumns,
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
            self.iterations, self.reason.name)


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


class LoopExecutionRecord:
    """One detected loop execution.

    ``iter_seqs[k]`` is the sequence number at which iteration ``k + 2``
    began (detection starts at the second iteration); ``end_seq`` is the
    terminating instruction.  A single-iteration execution has no
    ``iter_seqs``, ``start_seq == end_seq`` and no ``reason``; an
    execution not yet ended has ``end_seq``, ``iterations`` and
    ``reason`` None.
    """

    __slots__ = ("exec_id", "loop", "start_seq", "iter_seqs", "end_seq",
                 "iterations", "reason", "depth")

    def __init__(self, exec_id, loop, start_seq, depth):
        self.exec_id = exec_id
        self.loop = loop
        self.start_seq = start_seq
        self.iter_seqs = []
        self.end_seq = None
        self.iterations = None
        self.reason = None
        self.depth = depth

    @property
    def detected_iterations(self):
        """Iterations observable by hardware (excludes the undetected
        first iteration of multi-iteration executions)."""
        return len(self.iter_seqs)

    def iteration_lengths(self):
        """Instruction counts of fully delimited iterations."""
        bounds = list(self.iter_seqs)
        if self.end_seq is not None:
            bounds.append(self.end_seq)
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def __repr__(self):
        return ("LoopExecutionRecord(exec=%d, loop=%d, iters=%r, "
                "reason=%r)" % (self.exec_id, self.loop, self.iterations,
                                self.reason))


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
    """The :class:`EventColumns` of an ordered event list, per-execution
    columns included (an ``exec_id`` with no start gets start and end
    row -1)."""
    cols = EventColumns()
    for position, event in enumerate(events):
        etype = _CODES[type(event)]
        exec_id = event.exec_id
        cols.append(etype, event.seq, event.loop, exec_id, _aux(event))
        while len(cols.start_rows) <= exec_id:
            cols.start_rows.append(-1)
            cols.end_rows.append(-1)
            cols.end_reasons.append(0)
        if etype == EV_ITERATION:
            cols.iteration_positions.setdefault(
                exec_id, array("q")).append(position)
        elif etype == EV_EXEC_START:
            cols.start_rows[exec_id] = position
        elif etype == EV_EXEC_END:
            cols.end_rows[exec_id] = position
            cols.end_reasons[exec_id] = event.reason
        else:
            cols.start_rows[exec_id] = cols.end_rows[exec_id] = position
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


def from_columns(cols, positions=None):
    """The event objects at *positions* of *cols* (every row when
    ``None``); an end's reason is its execution's ``end_reasons``
    code."""
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
                *fields, EndReason(cols.end_reasons[cols.exec_ids[i]])))
        else:
            events.append(SingleIteration(*fields))
    return events


def index_events(index):
    """Every loop event of a :class:`~repro.core.detector.LoopIndex`
    as objects."""
    return from_columns(index.columns)


def column_records(cols):
    """``exec_id`` -> :class:`LoopExecutionRecord` of production
    columns, in start order, each field read from the row that holds
    it: loop, start seq and depth from the start row, end seq and
    iteration count from the end row (1 for a single iteration),
    ``iter_seqs`` from the iteration positions and the reason from
    ``end_reasons``.  An execution not yet ended (end row -1) has no
    end seq, iteration count or reason."""
    executions = {}
    etypes = cols.etypes
    seqs = cols.seqs
    auxs = cols.auxs
    for exec_id, (start, end, reason) in enumerate(zip(
            cols.start_rows, cols.end_rows, cols.end_reasons)):
        rec = LoopExecutionRecord(exec_id, cols.loops[start],
                                  seqs[start], auxs[start])
        rec.iter_seqs = [seqs[position] for position
                         in cols.iteration_positions.get(exec_id, ())]
        if end >= 0:
            rec.end_seq = seqs[end]
            rec.iterations = auxs[end] if etypes[end] == EV_EXEC_END \
                else 1
            rec.reason = EndReason(reason) if reason else None
        executions[exec_id] = rec
    return executions


def index_records(index):
    """:func:`column_records` of a
    :class:`~repro.core.detector.LoopIndex`."""
    return column_records(index.columns)


def columns_state(cols):
    """Every column, per-execution ones included, and the iteration
    positions, comparable with ``==``."""
    return (bytes(cols.etypes), list(cols.seqs), list(cols.loops),
            list(cols.exec_ids), list(cols.auxs), list(cols.start_rows),
            list(cols.end_rows), bytes(cols.end_reasons),
            {exec_id: list(positions) for exec_id, positions
             in cols.iteration_positions.items()})


def records_state(executions):
    """Every field of every execution record, in ``exec_id`` order."""
    return [(exec_id, rec.exec_id, rec.loop, rec.start_seq,
             list(rec.iter_seqs), rec.end_seq, rec.iterations,
             rec.reason, rec.depth)
            for exec_id, rec in executions.items()]
