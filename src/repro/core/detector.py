"""Dynamic loop detection over control-flow traces.

:class:`LoopDetector` replays a :class:`~repro.trace.stream.CFTrace`
through the :class:`~repro.core.cls.CurrentLoopStack` and produces:

* the totally ordered list of loop events (the single source of loop
  truth for every experiment), and
* a :class:`LoopIndex`: per-execution records with iteration boundary
  sequence numbers, which the thread-speculation engine uses as its
  oracle for what each speculative thread would execute.
"""

from array import array

from repro.core.cls import CurrentLoopStack, DEFAULT_CAPACITY
from repro.core.events import (
    EndReason,
    ExecutionEnd,
    ExecutionStart,
    IterationStart,
    SingleIteration,
)

#: :class:`EventColumns` type codes, index-aligned with ``etypes``.
EV_ITERATION = 0
EV_EXEC_START = 1
EV_EXEC_END = 2
EV_SINGLE = 3


class EventColumns:
    """The loop-event list of a trace as parallel columns.

    The speculation engine walks the event list once per simulated
    configuration -- typically twenty-plus times per workload -- and
    almost all of those visits touch only ``(type, seq, loop, exec_id)``
    plus one type-specific field.  The columnar form serves exactly
    that: ``etypes`` holds the ``EV_*`` code, ``auxs`` the
    type-specific field (iteration number for iteration starts, depth
    for execution starts and single iterations, iteration count for
    execution ends).  ``EndReason`` stays object-only; no simulation
    reads it.

    ``iteration_positions`` makes *sparse* walks possible: per
    ``exec_id``, the ascending positions of its iteration starts (a
    bisection finds "this execution's next iteration start after
    position i"), so a walker that knows nothing can happen at an
    iteration start (all TUs busy, execution untracked) jumps straight
    to the next position where something can.
    """

    __slots__ = ("etypes", "seqs", "loops", "exec_ids", "auxs",
                 "iteration_positions")

    def __init__(self, events):
        n = len(events)
        etypes = bytearray(n)
        seqs = array("q", bytes(8 * n))
        loops = array("q", bytes(8 * n))
        exec_ids = array("q", bytes(8 * n))
        auxs = array("q", bytes(8 * n))
        iteration_positions = {}
        for i, event in enumerate(events):
            etype = type(event)
            seqs[i] = event.seq
            loops[i] = event.loop
            exec_ids[i] = event.exec_id
            if etype is IterationStart:
                # etypes[i] stays EV_ITERATION
                auxs[i] = event.iteration
                positions = iteration_positions.get(event.exec_id)
                if positions is None:
                    positions = iteration_positions[event.exec_id] = \
                        array("q")
                positions.append(i)
            elif etype is ExecutionStart:
                etypes[i] = EV_EXEC_START
                auxs[i] = event.depth
            elif etype is ExecutionEnd:
                etypes[i] = EV_EXEC_END
                auxs[i] = event.iterations
            elif etype is SingleIteration:
                etypes[i] = EV_SINGLE
                auxs[i] = event.depth
            else:
                raise TypeError("unknown loop event type %r" % etype)
        self.etypes = bytes(etypes)
        self.seqs = seqs
        self.loops = loops
        self.exec_ids = exec_ids
        self.auxs = auxs
        self.iteration_positions = iteration_positions

    def __len__(self):
        return len(self.etypes)


class LoopExecutionRecord:
    """One detected loop execution.

    ``iter_seqs[k]`` is the sequence number at which iteration ``k + 2``
    began (detection starts at the second iteration); ``end_seq`` is the
    terminating instruction.  A single-iteration execution has no
    ``iter_seqs`` and ``start_seq == end_seq``.
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


class LoopIndex:
    """All loop executions of a trace, ordered by start sequence."""

    def __init__(self, executions, events, total_instructions,
                 cls_capacity):
        self.executions = executions          # exec_id -> record
        self.events = events                  # ordered LoopEvent list
        self.total_instructions = total_instructions
        self.cls_capacity = cls_capacity
        self._columns = None

    def columns(self):
        """The events as :class:`EventColumns`, built once per index.

        Every simulation over this index shares one columnar copy; the
        build is one pass over ``events`` and pays for itself the first
        time a walker skips anything.
        """
        columns = self._columns
        if columns is None:
            columns = self._columns = EventColumns(self.events)
        return columns

    def prefix(self, limit):
        """The index a detector of the same capacity builds from only
        the records with ``seq < limit``, read from this one.

        The CLS state after those records is the canonical one at that
        point, so their events are the canonical events with
        ``seq < limit``.  Finishing at *limit* then flushes every
        execution still open, innermost (latest pushed, so highest
        ``exec_id``) first, with its iteration count: one undetected
        first iteration plus one per iteration start.
        """
        events = self.events
        lo, hi = 0, len(events)
        while lo < hi:                # seqs never decrease
            mid = (lo + hi) // 2
            if events[mid].seq < limit:
                lo = mid + 1
            else:
                hi = mid
        events = events[:lo]
        executions = {}
        _record(executions, events)
        flush = [ExecutionEnd(limit, rec.loop, rec.exec_id,
                              1 + len(rec.iter_seqs), EndReason.FLUSH)
                 for rec in reversed(executions.values())
                 if rec.end_seq is None]
        _record(executions, flush)
        return LoopIndex(executions, events + flush, limit,
                         self.cls_capacity)

    def execution(self, exec_id):
        return self.executions[exec_id]

    def loops(self):
        """Set of distinct loop identifiers (target addresses)."""
        return {rec.loop for rec in self.executions.values()}

    def __len__(self):
        return len(self.executions)


class LoopDetector:
    """Replays a control-flow trace through the CLS."""

    def __init__(self, cls_capacity=DEFAULT_CAPACITY):
        self.cls = CurrentLoopStack(capacity=cls_capacity)
        self.events = []
        self.executions = {}

    # -- streaming interface ----------------------------------------------

    def feed_batch(self, batch):
        """Process one :class:`~repro.trace.batch.RecordBatch`; returns
        the (ordered) events it caused.

        One :meth:`CurrentLoopStack.process_batch` call per batch,
        with bookkeeping amortized over the whole batch; batch
        boundaries carry no meaning.
        """
        events = self.cls.process_batch(batch)
        if events:
            self._absorb(events)
        return events

    def finish(self, total_instructions):
        """Flush the CLS at end of trace; returns the flush events."""
        events = self.cls.flush(total_instructions)
        if events:
            self._absorb(events)
        return events

    def run(self, trace):
        """Run a whole :class:`~repro.trace.stream.CFTrace` through
        :meth:`run_batches` and return its LoopIndex."""
        return self.run_batches(trace.batches, trace.total_instructions)

    def run_batches(self, batches, total_instructions):
        """Feed an iterable of :class:`~repro.trace.batch.RecordBatch`
        (e.g. the stream of :func:`repro.trace.io.open_cf_batches`),
        flush at *total_instructions* and return a LoopIndex."""
        feed_batch = self.feed_batch
        for batch in batches:
            feed_batch(batch)
        self.finish(total_instructions)
        return self.index(total_instructions)

    def index(self, total_instructions):
        return LoopIndex(self.executions, self.events, total_instructions,
                         self.cls.capacity)

    def _absorb(self, events):
        _record(self.executions, events)
        self.events.extend(events)


def _record(executions, events):
    """Record *events* into *executions* (``exec_id`` -> record)."""
    for event in events:
        etype = type(event)
        if etype is IterationStart:
            rec = executions.get(event.exec_id)
            if rec is not None:
                rec.iter_seqs.append(event.seq)
        elif etype is ExecutionStart:
            executions[event.exec_id] = LoopExecutionRecord(
                event.exec_id, event.loop, event.seq, event.depth)
        elif etype is ExecutionEnd:
            rec = executions.get(event.exec_id)
            if rec is not None:
                rec.end_seq = event.seq
                rec.iterations = event.iterations
                rec.reason = event.reason
        elif etype is SingleIteration:
            rec = LoopExecutionRecord(event.exec_id, event.loop,
                                      event.seq, event.depth)
            rec.end_seq = event.seq
            rec.iterations = 1
            executions[event.exec_id] = rec
