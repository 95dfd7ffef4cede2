"""Trace containers."""

from repro.isa.instructions import InstrKind
from repro.trace.batch import RecordBatch


class CFTrace:
    """A control-flow trace in memory: its header and its columns.

    ``header`` is the :class:`~repro.trace.io.TraceHeader` (program
    name, ``total_instructions`` -- *all* executed instructions, the
    straight-line ones implicit between records -- ``halted`` and the
    record count); ``batches`` is the list of
    :class:`~repro.trace.batch.RecordBatch` holding one record per
    executed control transfer, in execution order.  Every producer
    returns this: the tracer, the pool worker, the v3 readers and the
    session.  Record tuples are a decoding view (:meth:`iter_records`).
    """

    __slots__ = ("header", "batches")

    def __init__(self, header, batches):
        self.header = header
        self.batches = batches

    @classmethod
    def from_records(cls, records, total_instructions, halted,
                     program_name="program"):
        """A trace of one batch built from
        :class:`~repro.trace.record.CFRecord` tuples (hand-built
        traces)."""
        from repro.trace.io import TRACE_FORMAT_VERSION, TraceHeader

        batch = RecordBatch.from_records(records)
        return cls(TraceHeader(TRACE_FORMAT_VERSION, program_name,
                               total_instructions, bool(halted),
                               len(batch)),
                   [batch] if len(batch) else [])

    @property
    def program_name(self):
        return self.header.program_name

    @property
    def total_instructions(self):
        return self.header.total_instructions

    @property
    def halted(self):
        return self.header.halted

    def iter_records(self):
        """Decode every record to a :class:`~repro.trace.record.CFRecord`,
        in order."""
        for batch in self.batches:
            yield from batch.iter_records()

    def validate(self):
        """Check internal consistency; raises ``ValueError`` on violation.

        Invariants: sequence numbers strictly increase, every record's
        ``seq`` is below ``total_instructions``, and consecutive records
        are linked by straight-line execution (the next record's pc is
        reachable from the previous record's successor by falling
        through, i.e. ``next.pc >= prev.next_pc`` and the gap equals the
        pc distance).
        """
        prev = None
        for rec in self.iter_records():
            if rec.seq >= self.total_instructions:
                raise ValueError("record %r beyond trace length" % (rec,))
            if prev is not None:
                if rec.seq <= prev.seq:
                    raise ValueError("non-monotonic seq at %r" % (rec,))
                if prev.kind != int(InstrKind.HALT):
                    start = prev.next_pc
                    gap = rec.seq - prev.seq - 1
                    if rec.pc - start != gap:
                        raise ValueError(
                            "straight-line gap mismatch between %r and %r"
                            % (prev, rec))
            prev = rec
        return True


class FullTrace:
    """A full per-instruction trace (see :class:`FullRecord`)."""

    def __init__(self, records, total_instructions, halted,
                 program_name="program"):
        self.records = records
        self.total_instructions = total_instructions
        self.halted = halted
        self.program_name = program_name

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    def control_flow(self):
        """Project to a :class:`CFTrace` (for the shared detector path)."""
        return CFTrace.from_records(
            [rec.as_cf() for rec in self.records
             if rec.kind != int(InstrKind.OTHER)],
            self.total_instructions, self.halted, self.program_name)


def clip(cf_trace, max_instructions):
    """Return a trace truncated to the first *max_instructions*."""
    if max_instructions >= cf_trace.total_instructions:
        return cf_trace
    batches = [batch.prefix(max_instructions)
               for batch in cf_trace.batches]
    batches = [batch for batch in batches if len(batch)]
    return CFTrace(cf_trace.header._replace(
        total_instructions=max_instructions, halted=False,
        records=sum(map(len, batches))), batches)
