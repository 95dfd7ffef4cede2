"""Full trace records.

A control-flow trace is columns (:mod:`repro.trace.batch`).  A full
trace (:func:`repro.cpu.tracer.trace_full`) carries one
:class:`FullRecord` per executed instruction, with its register and
memory accesses and their values; the data-speculation study (paper
section 4) reads these grouped into block rows
(:meth:`repro.trace.batch.StudyBatch.from_records`).
"""

from typing import NamedTuple, Optional, Tuple


class FullRecord(NamedTuple):
    """One executed instruction with its architectural effects."""

    seq: int
    pc: int
    kind: int
    taken: bool
    target: Optional[int]
    reg_reads: Tuple          #: tuple of (register index, value read)
    reg_writes: Tuple         #: tuple of (register index, value written)
    mem_reads: Tuple          #: tuple of (address, value read)
    mem_writes: Tuple         #: tuple of (address, value written)
