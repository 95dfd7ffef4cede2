"""Dynamic loop detection over control-flow traces.

:class:`LoopDetector` replays a :class:`~repro.trace.stream.CFTrace`
through the :class:`~repro.core.cls.CurrentLoopStack`, which writes a
:class:`LoopIndex`: the totally ordered loop events, with each
execution's start row, end row and end reason, as
:class:`~repro.core.events.EventColumns` -- the single source of loop
truth for every experiment.  The thread-speculation engine reads
iteration boundaries from them (``seqs`` at an execution's iteration
positions) as its oracle for what each speculative thread would
execute.
"""

from bisect import bisect_left

from repro.core.cls import CurrentLoopStack, DEFAULT_CAPACITY
from repro.core.events import EV_EXEC_END, EndReason, EventColumns


class LoopIndex:
    """The event columns of a finished trace: every loop execution, in
    start order, has a start row and an end row."""

    def __init__(self, columns, total_instructions, cls_capacity):
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
        ended before *limit* share their iteration positions with this
        index.
        """
        cols = self.columns
        cut = bisect_left(cols.seqs, limit)     # seqs never decrease
        out = EventColumns()
        out.etypes = cols.etypes[:cut]
        out.seqs = cols.seqs[:cut]
        out.loops = cols.loops[:cut]
        out.exec_ids = cols.exec_ids[:cut]
        out.auxs = cols.auxs[:cut]
        # exec_ids follow start rows.
        started = bisect_left(cols.start_rows, cut)
        out.start_rows = cols.start_rows[:started]
        end_rows = out.end_rows = cols.end_rows[:started]
        end_reasons = out.end_reasons = cols.end_reasons[:started]
        positions_of = cols.iteration_positions
        out_positions = out.iteration_positions
        still_open = []
        for exec_id in range(started):
            positions = positions_of.get(exec_id)
            if end_rows[exec_id] < cut:
                if positions is not None:
                    out_positions[exec_id] = positions
                continue
            out_positions[exec_id] = positions[
                :bisect_left(positions, cut)]
            still_open.append(exec_id)
        loops = out.loops
        start_rows = out.start_rows
        for exec_id in reversed(still_open):
            end_rows[exec_id] = len(out.etypes)
            end_reasons[exec_id] = EndReason.FLUSH
            out.append(EV_EXEC_END, limit, loops[start_rows[exec_id]],
                       exec_id, 1 + len(out_positions[exec_id]))
        return LoopIndex(out, limit, self.cls_capacity)

    def __len__(self):
        """The number of loop executions."""
        return len(self.columns.start_rows)


class LoopDetector:
    """Replays a control-flow trace through the CLS."""

    def __init__(self, cls_capacity=DEFAULT_CAPACITY):
        self.cls = CurrentLoopStack(capacity=cls_capacity)
        self.columns = self.cls.columns

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
        """The :class:`LoopIndex` of the columns; call it after
        :meth:`finish`, which ends every execution still open."""
        return LoopIndex(self.columns, total_instructions,
                         self.cls.capacity)
