"""The record view of control-flow traces, for tests.

Production moves a control-flow trace only as columns
(:class:`~repro.trace.batch.RecordBatch`, one per chunk, inside a
:class:`~repro.trace.stream.CFTrace`).  Tests that state traces by hand
or compare them record by record use this view instead: a
:class:`CFRecord` is one row of the five columns, with ``None`` for
the halt record's missing target.
"""

import io
from array import array
from bisect import bisect_left
from typing import NamedTuple, Optional

from repro.isa.instructions import InstrKind
from repro.trace.batch import NO_TARGET, RecordBatch
from repro.trace.io import (
    TRACE_FORMAT_VERSION,
    TraceHeader,
    dump_cf_trace,
    load_cf_trace,
)
from repro.trace.stream import CFTrace


class CFRecord(NamedTuple):
    """One executed control-transfer instruction."""

    seq: int                 #: global dynamic instruction index (0-based)
    pc: int                  #: instruction address
    kind: int                #: :class:`InstrKind` value
    taken: bool              #: True for taken branches and all jumps
    target: Optional[int]    #: destination when taken (None for halt)

    @property
    def next_pc(self):
        return self.target if self.taken else self.pc + 1

    @property
    def is_backward(self):
        """Backward transfer per the paper: target at or before the pc.
        A not-taken backward branch is still backward; the halt record
        has no target and never is."""
        return self.target is not None and self.target <= self.pc


def batch_of(records):
    """One :class:`RecordBatch` of *records* (:class:`CFRecord` or any
    ``(seq, pc, kind, taken, target)`` rows)."""
    columns = list(zip(*records)) or [()] * 5
    targets = [NO_TARGET if target is None else target
               for target in columns[4]]
    return RecordBatch(array("q", columns[0]), array("q", columns[1]),
                       array("b", columns[2]),
                       array("b", map(int, columns[3])),
                       array("q", targets))


def trace_of(records, total_instructions, halted, program_name="program"):
    """A :class:`CFTrace` of one batch holding *records*."""
    batch = batch_of(records)
    return CFTrace(TraceHeader(TRACE_FORMAT_VERSION, program_name,
                               total_instructions, bool(halted),
                               len(batch)),
                   [batch] if len(batch) else [])


def iter_records(source):
    """Every row of *source* -- a :class:`RecordBatch`, a
    :class:`CFTrace` or an iterable of batches -- as a
    :class:`CFRecord`, in order."""
    if isinstance(source, CFTrace):
        source = source.batches
    elif isinstance(source, RecordBatch):
        source = (source,)
    for batch in source:
        for seq, pc, kind, taken, target in zip(
                batch.seqs, batch.pcs, batch.kinds, batch.takens,
                batch.targets):
            yield CFRecord(seq, pc, kind, bool(taken),
                           None if target < 0 else target)


def slice_batch(batch, start, stop):
    """Rows ``[start, stop)`` of *batch* as a batch of memoryviews
    into its storage."""
    return RecordBatch(*(memoryview(column)[start:stop] for column in (
        batch.seqs, batch.pcs, batch.kinds, batch.takens, batch.targets)))


def prefix(batch, seq_limit):
    """The rows of *batch* with ``seq < seq_limit`` (seqs increase)."""
    return slice_batch(batch, 0, bisect_left(batch.seqs, seq_limit))


def clip(trace, max_instructions):
    """*trace* truncated to its first *max_instructions*."""
    if max_instructions >= trace.total_instructions:
        return trace
    batches = [prefix(batch, max_instructions) for batch in trace.batches]
    batches = [batch for batch in batches if len(batch)]
    return CFTrace(trace.header._replace(
        total_instructions=max_instructions, halted=False,
        records=sum(map(len, batches))), batches)


def control_flow(full_trace):
    """The control-flow trace of a
    :class:`~repro.trace.stream.FullTrace`: its control records."""
    return trace_of([record[:5] for record in full_trace.records
                     if record.kind != int(InstrKind.OTHER)],
                    full_trace.total_instructions, full_trace.halted,
                    full_trace.program_name)


def dumps(trace):
    """*trace* as v3 ``bytes``."""
    buf = io.BytesIO()
    dump_cf_trace(trace, buf)
    return buf.getvalue()


def loads(data):
    """The :class:`CFTrace` of v3 bytes *data* (any bytes-like
    buffer)."""
    return load_cf_trace(io.BytesIO(data))
