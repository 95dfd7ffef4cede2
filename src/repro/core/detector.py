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
from bisect import bisect_right

from repro.core.cls import CurrentLoopStack, DEFAULT_CAPACITY
from repro.core.events import (
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

    Two derived structures make *sparse* walks possible:

    * ``next_non_iteration[i]`` -- the first position ``>= i`` whose
      event is not an :class:`~repro.core.events.IterationStart`
      (``len(events)`` when there is none); and
    * ``iteration_positions`` -- per ``exec_id``, the ascending
      positions of its iteration starts
      (:meth:`next_iteration_after` answers "this execution's next
      iteration start after position i" by bisection).

    A walker that knows nothing can happen at an iteration start (all
    TUs busy, execution untracked) jumps straight to the next position
    where something can.
    """

    __slots__ = ("etypes", "seqs", "loops", "exec_ids", "auxs",
                 "next_non_iteration", "iteration_positions")

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
        next_non_iteration = array("q", bytes(8 * (n + 1)))
        nxt = n
        next_non_iteration[n] = n
        for i in range(n - 1, -1, -1):
            if etypes[i] != EV_ITERATION:
                nxt = i
            next_non_iteration[i] = nxt
        self.etypes = bytes(etypes)
        self.seqs = seqs
        self.loops = loops
        self.exec_ids = exec_ids
        self.auxs = auxs
        self.next_non_iteration = next_non_iteration
        self.iteration_positions = iteration_positions

    def __len__(self):
        return len(self.etypes)

    def next_iteration_after(self, exec_id, position):
        """The first iteration-start position of *exec_id* strictly
        after *position*, or ``len(self)``."""
        positions = self.iteration_positions.get(exec_id)
        if positions is None:
            return len(self.etypes)
        k = bisect_right(positions, position)
        if k == len(positions):
            return len(self.etypes)
        return positions[k]


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

    def execution(self, exec_id):
        return self.executions[exec_id]

    def loops(self):
        """Set of distinct loop identifiers (target addresses)."""
        return {rec.loop for rec in self.executions.values()}

    def multi_iteration_executions(self):
        return [rec for rec in self.executions.values() if rec.iter_seqs]

    def __len__(self):
        return len(self.executions)


class LoopDetector:
    """Replays a control-flow trace through the CLS."""

    def __init__(self, cls_capacity=DEFAULT_CAPACITY):
        self.cls = CurrentLoopStack(capacity=cls_capacity)
        self.events = []
        self.executions = {}

    # -- streaming interface ----------------------------------------------

    def feed(self, record):
        """Process one CF record; returns the events it caused."""
        events = self.cls.process(record.seq, record.pc, record.kind,
                                  record.taken, record.target)
        if events:
            self._absorb(events)
        return events

    def feed_batch(self, batch):
        """Process one :class:`~repro.trace.batch.RecordBatch`; returns
        the (ordered) events it caused.

        The columnar fast path: one
        :meth:`CurrentLoopStack.process_batch` call per batch instead
        of one :meth:`feed` per record, with bookkeeping amortized over
        the whole batch.  Event order -- and
        therefore every downstream consumer -- is identical to the
        per-record path.
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

    def run(self, trace, total_instructions=None):
        """Convenience: feed an entire trace and return a LoopIndex.

        *trace* is either a :class:`~repro.trace.stream.CFTrace` or any
        iterable of CF records, in which case *total_instructions* must
        be given explicitly.  The pipeline feeds columns through
        :meth:`run_batches` instead.
        """
        records = getattr(trace, "records", trace)
        if total_instructions is None:
            try:
                total_instructions = trace.total_instructions
            except AttributeError:
                raise TypeError(
                    "run() needs total_instructions when fed a plain "
                    "record iterable instead of a CFTrace") from None
        feed = self.feed
        for record in records:
            feed(record)
        self.finish(total_instructions)
        return self.index(total_instructions)

    def run_batches(self, batches, total_instructions):
        """Like :meth:`run`, over an iterable of
        :class:`~repro.trace.batch.RecordBatch` (e.g. the stream of
        :func:`repro.trace.io.open_cf_batches`)."""
        feed_batch = self.feed_batch
        for batch in batches:
            feed_batch(batch)
        self.finish(total_instructions)
        return self.index(total_instructions)

    def index(self, total_instructions):
        return LoopIndex(self.executions, self.events, total_instructions,
                         self.cls.capacity)

    # -- event bookkeeping ---------------------------------------------------

    def _absorb(self, events):
        executions = self.executions
        for event in events:
            if type(event) is IterationStart:
                rec = executions.get(event.exec_id)
                if rec is not None:
                    rec.iter_seqs.append(event.seq)
                else:
                    # First IterationStart arrives with ExecutionStart.
                    pass
            elif type(event) is ExecutionStart:
                executions[event.exec_id] = LoopExecutionRecord(
                    event.exec_id, event.loop, event.seq, event.depth)
            elif type(event) is ExecutionEnd:
                rec = executions.get(event.exec_id)
                if rec is not None:
                    rec.end_seq = event.seq
                    rec.iterations = event.iterations
                    rec.reason = event.reason
            elif type(event) is SingleIteration:
                rec = LoopExecutionRecord(event.exec_id, event.loop,
                                          event.seq, event.depth)
                rec.end_seq = event.seq
                rec.iterations = 1
                executions[event.exec_id] = rec
        self.events.extend(events)
