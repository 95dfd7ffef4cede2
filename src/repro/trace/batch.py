"""Columnar record batches: the native currency of the trace pipeline.

A :class:`RecordBatch` holds a run of control-flow records as five
parallel columns (``seqs``/``pcs``/``kinds``/``takens``/``targets``)
instead of a list of :class:`~repro.trace.record.CFRecord` tuples.
Everything between the tracer and the analysis layer moves batches:

* :class:`repro.cpu.tracer.ChunkedCFTracer` emits them directly from
  the interpretation loop;
* the binary v3 trace format (:mod:`repro.trace.io`) writes and reads
  them as struct-packed column chunks, so the on-disk cache round-trip
  is ``tobytes``/``frombytes`` rather than text formatting and parsing;
* :meth:`repro.core.detector.LoopDetector.feed_batch` and the analysis
  ``feed_batch`` protocol consume columns with one tight loop per
  batch, dropping to per-record work only where a record actually
  causes a loop event.

Columns are ``array('q')`` (seq, pc, target) and ``array('b')`` (kind,
taken); a ``target`` of :data:`NO_TARGET` encodes ``None`` (the halt
record -- program addresses are non-negative by construction).
Slicing is **zero-copy**: :meth:`RecordBatch.slice` and
:meth:`RecordBatch.prefix` return batches whose columns are
memoryviews into the parent's storage.

:class:`FullBatch` is the analogous columnar form of a full
per-instruction trace, with fixed-slot effect columns (at most two
register reads, one register write, one memory access per
instruction on this ISA); the data-speculation study streams these
from :class:`repro.cpu.tracer.ChunkedFullTracer` without ever
materializing :class:`~repro.trace.record.FullRecord` objects.
"""

from array import array
from bisect import bisect_left

from repro.trace.record import CFRecord

#: ``target`` column sentinel encoding ``None`` (halt has no target).
NO_TARGET = -1


class RecordBatch:
    """A run of control-flow records as five parallel columns.

    Columns are positionally aligned sequences (arrays, or memoryviews
    for zero-copy slices): ``seqs``/``pcs``/``targets`` hold signed
    64-bit values, ``kinds``/``takens`` signed bytes.  ``seqs`` is
    strictly increasing within a batch (execution order), which
    :meth:`prefix` exploits.  Batches are immutable once built.
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

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls):
        return cls(array("q"), array("q"), array("b"), array("b"),
                   array("q"))

    @classmethod
    def from_records(cls, records):
        """Build a batch from an iterable of :class:`CFRecord`."""
        seqs = array("q")
        pcs = array("q")
        kinds = array("b")
        takens = array("b")
        targets = array("q")
        for rec in records:
            seqs.append(rec.seq)
            pcs.append(rec.pc)
            kinds.append(rec.kind)
            takens.append(1 if rec.taken else 0)
            targets.append(NO_TARGET if rec.target is None else rec.target)
        return cls(seqs, pcs, kinds, takens, targets)

    # -- container protocol --------------------------------------------------

    def __len__(self):
        return len(self.seqs)

    def __iter__(self):
        return self.iter_records()

    @property
    def columns(self):
        """``(seqs, pcs, kinds, takens, targets)``."""
        return (self.seqs, self.pcs, self.kinds, self.takens,
                self.targets)

    def record(self, i):
        """The *i*-th record, decoded to a :class:`CFRecord`."""
        target = self.targets[i]
        return CFRecord(self.seqs[i], self.pcs[i], self.kinds[i],
                        bool(self.takens[i]),
                        None if target < 0 else target)

    def iter_records(self):
        """Decode every row to a :class:`CFRecord`, in order."""
        for seq, pc, kind, taken, target in zip(
                self.seqs, self.pcs, self.kinds, self.takens,
                self.targets):
            yield CFRecord(seq, pc, kind, bool(taken),
                           None if target < 0 else target)

    # -- zero-copy slicing ---------------------------------------------------

    def slice(self, start, stop):
        """Rows ``[start, stop)`` as a batch sharing this one's storage."""
        return RecordBatch(memoryview(self.seqs)[start:stop],
                           memoryview(self.pcs)[start:stop],
                           memoryview(self.kinds)[start:stop],
                           memoryview(self.takens)[start:stop],
                           memoryview(self.targets)[start:stop])

    def prefix(self, seq_limit):
        """The (zero-copy) prefix of records with ``seq < seq_limit``.

        Relies on ``seqs`` being sorted; returns ``self`` unchanged when
        every record qualifies.
        """
        n = len(self.seqs)
        if n == 0 or self.seqs[n - 1] < seq_limit:
            return self
        return self.slice(0, bisect_left(self.seqs, seq_limit))

    def __repr__(self):
        if len(self):
            span = " seq %d..%d" % (self.seqs[0], self.seqs[-1])
        else:
            span = ""
        return "RecordBatch(%d records%s)" % (len(self), span)


class FullBatch:
    """A run of full per-instruction records as fixed-slot columns.

    The ISA bounds every instruction's architectural effects: at most
    two register reads, one register write, one memory read (``ld``)
    and one memory write (``st``).  One column per slot therefore
    replaces the nested effect tuples of
    :class:`~repro.trace.record.FullRecord`:

    ``rr1``/``rv1``, ``rr2``/``rv2``
        register-read slots (register index / value); ``-1`` marks an
        empty slot.  Reads of register 0 (the hardwired zero) are not
        recorded -- no consumer observes them.
    ``wr``
        written register index or ``-1``; writes to register 0 are
        likewise dropped.
    ``mra``/``mrv``, ``mwa``
        memory-read address/value and memory-write address; ``None``
        marks an empty slot (addresses are unbounded Python ints, so
        the columns are plain lists).

    ``seqs`` is implicit: a full trace covers every instruction, so row
    ``i`` has sequence number ``start_seq + i``.
    """

    __slots__ = ("start_seq", "pcs", "kinds", "takens", "targets",
                 "rr1", "rv1", "rr2", "rv2", "wr", "mra", "mrv", "mwa")

    def __init__(self, start_seq, pcs, kinds, takens, targets,
                 rr1, rv1, rr2, rv2, wr, mra, mrv, mwa):
        n = len(pcs)
        for column in (kinds, takens, targets, rr1, rv1, rr2, rv2, wr,
                       mra, mrv, mwa):
            if len(column) != n:
                raise ValueError("full batch columns disagree on length")
        self.start_seq = start_seq
        self.pcs = pcs
        self.kinds = kinds
        self.takens = takens
        self.targets = targets
        self.rr1 = rr1
        self.rv1 = rv1
        self.rr2 = rr2
        self.rv2 = rv2
        self.wr = wr
        self.mra = mra
        self.mrv = mrv
        self.mwa = mwa

    @classmethod
    def from_records(cls, records, start_seq=0):
        """Build a batch from consecutive
        :class:`~repro.trace.record.FullRecord` objects starting at
        sequence *start_seq* (register-0 effects dropped)."""
        columns = tuple([] for _ in range(12))
        (pcs, kinds, takens, targets, rr1, rv1, rr2, rv2, wr, mra, mrv,
         mwa) = columns
        for rec in records:
            pcs.append(rec.pc)
            kinds.append(rec.kind)
            takens.append(1 if rec.taken else 0)
            targets.append(NO_TARGET if rec.target is None else rec.target)
            reads = [read for read in rec.reg_reads if read[0]] \
                + [(-1, 0)] * 2
            rr1.append(reads[0][0])
            rv1.append(reads[0][1])
            rr2.append(reads[1][0])
            rv2.append(reads[1][1])
            writes = [reg for reg, _ in rec.reg_writes if reg]
            wr.append(writes[0] if writes else -1)
            mra.append(rec.mem_reads[0][0] if rec.mem_reads else None)
            mrv.append(rec.mem_reads[0][1] if rec.mem_reads else None)
            mwa.append(rec.mem_writes[0][0] if rec.mem_writes else None)
        return cls(start_seq, *columns)

    def __len__(self):
        return len(self.pcs)

    def __repr__(self):
        return ("FullBatch(%d instructions from seq %d)"
                % (len(self), self.start_seq))
