"""Trace containers."""


class CFTrace:
    """A control-flow trace in memory: its header and its columns.

    ``header`` is the :class:`~repro.trace.io.TraceHeader` (program
    name, ``total_instructions`` -- *all* executed instructions, the
    straight-line ones implicit between records -- ``halted`` and the
    record count); ``batches`` is the list of
    :class:`~repro.trace.batch.RecordBatch` holding one record per
    executed control transfer, in execution order.  Every producer
    returns this: the tracer, the pool worker, the v3 readers and the
    session.
    """

    __slots__ = ("header", "batches")

    def __init__(self, header, batches):
        self.header = header
        self.batches = batches

    @property
    def program_name(self):
        return self.header.program_name

    @property
    def total_instructions(self):
        return self.header.total_instructions

    @property
    def halted(self):
        return self.header.halted


class FullTrace:
    """A full per-instruction trace: a list of
    :class:`~repro.trace.record.FullRecord`."""

    def __init__(self, records, total_instructions, halted,
                 program_name="program"):
        self.records = records
        self.total_instructions = total_instructions
        self.halted = halted
        self.program_name = program_name
