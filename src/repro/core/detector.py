"""Dynamic loop detection over control-flow traces.

:class:`LoopDetector` replays a :class:`~repro.trace.stream.CFTrace`
through the :class:`~repro.core.cls.CurrentLoopStack`, which writes a
:class:`LoopIndex`:

* the totally ordered loop events as
  :class:`~repro.core.events.EventColumns` (the single source of loop
  truth for every experiment), and
* one :class:`~repro.core.events.LoopExecutionRecord` per execution,
  with iteration boundary sequence numbers, which the
  thread-speculation engine uses as its oracle for what each
  speculative thread would execute.
"""

from bisect import bisect_left

from repro.core.cls import CurrentLoopStack, DEFAULT_CAPACITY
from repro.core.events import (
    EV_EXEC_END,
    EndReason,
    EventColumns,
    LoopExecutionRecord,
)


class LoopIndex:
    """All loop executions of a trace, ordered by start sequence, and
    the event columns that produced them."""

    def __init__(self, executions, columns, total_instructions,
                 cls_capacity):
        self.executions = executions          # exec_id -> record
        self.columns = columns                # EventColumns
        self.total_instructions = total_instructions
        self.cls_capacity = cls_capacity

    def prefix(self, limit):
        """The index a detector of the same capacity builds from only
        the records with ``seq < limit``, read from this one.

        The CLS state after those records is the canonical one at that
        point, so their events are the canonical rows with
        ``seq < limit``.  Finishing at *limit* then flushes every
        execution still open, innermost (latest pushed, so highest
        ``exec_id``) first, with its iteration count: one undetected
        first iteration plus one per iteration start.  Executions that
        ended before *limit* share their records and iteration
        positions with this index.
        """
        cols = self.columns
        cut = bisect_left(cols.seqs, limit)     # seqs never decrease
        out = EventColumns()
        out.etypes = cols.etypes[:cut]
        out.seqs = cols.seqs[:cut]
        out.loops = cols.loops[:cut]
        out.exec_ids = cols.exec_ids[:cut]
        out.auxs = cols.auxs[:cut]
        positions_of = cols.iteration_positions
        out_positions = out.iteration_positions
        executions = {}
        still_open = []
        for exec_id, rec in self.executions.items():
            if rec.start_seq >= limit:          # exec_ids follow seqs
                break
            positions = positions_of.get(exec_id)
            if rec.end_seq is not None and rec.end_seq < limit:
                executions[exec_id] = rec
                if positions is not None:
                    out_positions[exec_id] = positions
                continue
            part = LoopExecutionRecord(exec_id, rec.loop, rec.start_seq,
                                       rec.depth)
            part.iter_seqs = rec.iter_seqs[
                :bisect_left(rec.iter_seqs, limit)]
            executions[exec_id] = part
            out_positions[exec_id] = positions[
                :bisect_left(positions, cut)]
            still_open.append(part)
        for rec in reversed(still_open):
            rec.end_seq = limit
            rec.iterations = 1 + len(rec.iter_seqs)
            rec.reason = EndReason.FLUSH
            out.append(EV_EXEC_END, limit, rec.loop, rec.exec_id,
                       rec.iterations)
        return LoopIndex(executions, out, limit, self.cls_capacity)

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
        self.columns = self.cls.columns
        self.executions = self.cls.executions

    # -- streaming interface ----------------------------------------------

    def feed_batch(self, batch):
        """Process one :class:`~repro.trace.batch.RecordBatch`; returns
        the ``range`` of ``columns`` positions of the events it caused.

        One :meth:`CurrentLoopStack.process_batch` call per batch;
        batch boundaries carry no meaning.
        """
        return self.cls.process_batch(batch)

    def finish(self, total_instructions):
        """Flush the CLS at end of trace; returns the ``range`` of
        ``columns`` positions of the flush events."""
        return self.cls.flush(total_instructions)

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
        return LoopIndex(self.executions, self.columns, total_instructions,
                         self.cls.capacity)
