"""Columnar record batches: the native currency of the trace pipeline.

A :class:`RecordBatch` holds a run of control-flow records, one per
executed control-transfer instruction, as five parallel columns
(``seqs``/``pcs``/``kinds``/``takens``/``targets``).  Straight-line
instructions are implicit: between two consecutive records the machine
executed exactly ``next seq - prev seq - 1`` non-control instructions.
Everything between the tracer and the analysis layer moves batches:

* :class:`repro.cpu.tracer.ChunkedCFTracer` emits them directly from
  the interpretation loop;
* the binary v3 trace format (:mod:`repro.trace.io`) writes and reads
  them as struct-packed column chunks, so the on-disk cache round-trip
  is ``tobytes``/``frombytes`` rather than text formatting and parsing;
* :meth:`repro.core.detector.LoopDetector.feed_batch` and the analysis
  passes consume columns with one tight loop per batch, dropping to
  per-record work only where a record actually causes a loop event.

Columns are ``array('q')`` (seq, pc, target) and ``array('b')`` (kind,
taken), or read-only memoryviews of a decoded v3 chunk; a ``target``
of :data:`NO_TARGET` encodes the halt record's missing target (program
addresses are non-negative by construction).

:class:`StudyBatch` is what the data-speculation study reads instead
of a full per-instruction trace: one row per executed block, with the
block's terminator, its upward-exposed register reads and its memory
operations.  :class:`repro.cpu.tracer.ChunkedFullTracer` emits these
without ever materializing :class:`~repro.trace.record.FullRecord`
objects.
"""

from array import array

#: ``target`` column sentinel encoding ``None`` (halt has no target).
NO_TARGET = -1


class RecordBatch:
    """A run of control-flow records as five parallel columns.

    Columns are positionally aligned sequences (arrays, or memoryviews
    of a decoded v3 chunk): ``seqs``/``pcs``/``targets`` hold signed
    64-bit values, ``kinds``/``takens`` signed bytes.  ``seqs`` is
    strictly increasing within a batch (execution order).  Batches are
    immutable once built.
    """

    __slots__ = ("seqs", "pcs", "kinds", "takens", "targets")

    def __init__(self, seqs, pcs, kinds, takens, targets):
        n = len(seqs)
        if not (len(pcs) == len(kinds) == len(takens)
                == len(targets) == n):
            raise ValueError("record batch columns disagree on length")
        self.seqs = seqs
        self.pcs = pcs
        self.kinds = kinds
        self.takens = takens
        self.targets = targets

    def __len__(self):
        return len(self.seqs)


class StudyBatch:
    """A run of executed blocks as the data-speculation study reads them.

    A block is the straight-line run from an entry to its terminator,
    the first control instruction.  Within a block no loop event can
    happen, so the study needs only what can capture a live-in (see
    :mod:`repro.core.dataspec.stats`): one row per block,
    ``(end, (exposed, touched, ops), data, token)``:

    ``end``
        the seq of the block's last instruction, its terminator;
    ``exposed``
        the upward-exposed register reads: the registers whose first
        access in the block is a read, in first-access order;
    ``touched``
        every register the block reads or writes, in first-access
        order;
    ``ops``
        the loads and stores in program order: a load's pc, or -1 for
        a store;
    ``data``
        one flat tuple: the value of each exposed read, then for each
        of ``ops`` a load's address and value or a store's address;
    ``token``
        the terminator's path token, ``pc * 2 + taken``.

    The middle tuple depends only on the block's instructions, so a
    translated block emits one constant for it.

    Register 0 is never listed (it reads as 0 and drops writes).  Only
    a trace cut by its instruction budget ends in a row without a
    terminator: its ``end`` is the last instruction run and its
    ``token`` is None.  ``control`` holds the terminators as a
    :class:`RecordBatch`, the loop detector's input.  ``len()`` is the
    number of instructions the rows cover, from ``start_seq``.
    """

    __slots__ = ("start_seq", "instructions", "control", "rows")

    def __init__(self, start_seq, instructions, control, rows):
        self.start_seq = start_seq
        self.instructions = instructions
        self.control = control
        self.rows = rows

    @classmethod
    def from_records(cls, records, start_seq=0):
        """Group consecutive :class:`~repro.trace.record.FullRecord`
        objects, starting at sequence *start_seq*, into one batch of
        block rows.  Any record whose kind is not ``OTHER`` ends a
        block."""
        rows = []
        # The terminators' columns.
        seqs, pcs, targets = array("q"), array("q"), array("q")
        kinds, takens = array("b"), array("b")
        touched = {}
        exposed = []
        values = []
        ops = []
        memory = []
        first = start_seq             # the current block's first seq
        end = start_seq - 1
        for rec in records:
            end = rec.seq
            for reg, value in rec.reg_reads:
                if reg and reg not in touched:
                    touched[reg] = None
                    exposed.append(reg)
                    values.append(value)
            for reg, _ in rec.reg_writes:
                if reg:
                    touched.setdefault(reg)
            for addr, value in rec.mem_reads:
                ops.append(rec.pc)
                memory += (addr, value)
            for addr, _ in rec.mem_writes:
                ops.append(-1)
                memory.append(addr)
            if rec.kind:
                seqs.append(end)
                pcs.append(rec.pc)
                kinds.append(rec.kind)
                takens.append(1 if rec.taken else 0)
                targets.append(NO_TARGET if rec.target is None
                               else rec.target)
                rows.append((end, (tuple(exposed), tuple(touched),
                                   tuple(ops)),
                             tuple(values + memory),
                             rec.pc * 2 + (1 if rec.taken else 0)))
                touched = {}
                exposed = []
                values = []
                ops = []
                memory = []
                first = end + 1
        if end >= first:
            rows.append((end, (tuple(exposed), tuple(touched), tuple(ops)),
                         tuple(values + memory), None))
        return cls(start_seq, end + 1 - start_seq,
                   RecordBatch(seqs, pcs, kinds, takens, targets), rows)

    def __len__(self):
        return self.instructions
