"""Trace containers and streaming utilities."""

from repro.isa.instructions import InstrKind
from repro.trace.record import CFRecord


class CFTrace:
    """A control-flow trace: records plus run metadata.

    ``records`` holds one :class:`~repro.trace.record.CFRecord` per
    executed control transfer, in execution order.  ``total_instructions``
    is the number of *all* executed instructions (straight-line ones are
    implicit between records).
    """

    def __init__(self, records, total_instructions, halted,
                 program_name="program"):
        self.records = records
        self.total_instructions = total_instructions
        self.halted = halted
        self.program_name = program_name

    @classmethod
    def from_batches(cls, header, batches):
        """Decode a :class:`~repro.trace.batch.RecordBatch` stream into a
        record-list trace; *header* supplies ``program_name``,
        ``total_instructions`` and ``halted`` (a
        :class:`~repro.trace.io.TraceHeader`)."""
        records = []
        for batch in batches:
            records.extend(batch.iter_records())
        return cls(records, header.total_instructions, header.halted,
                   header.program_name)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

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
        for rec in self.records:
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
        records = [rec.as_cf() for rec in self.records
                   if rec.kind != int(InstrKind.OTHER)]
        return CFTrace(records=records,
                       total_instructions=self.total_instructions,
                       halted=self.halted, program_name=self.program_name)


def clip(cf_trace, max_instructions):
    """Return a trace truncated to the first *max_instructions*."""
    if max_instructions >= cf_trace.total_instructions:
        return cf_trace
    records = [r for r in cf_trace.records if r.seq < max_instructions]
    return CFTrace(records=records, total_instructions=max_instructions,
                   halted=False, program_name=cf_trace.program_name)
