"""Content-keyed on-disk cache for control-flow traces.

Each entry is one binary v3 trace file whose name embeds every
parameter that determines its content — workload name, scale,
effective instruction budget, the trace format version, and a digest
of the compiled program itself (:func:`program_fingerprint`)::

    <root>/swim-s1-m2000000-v3-1f8a0c93d2e47b56.cft

Changing any parameter, bumping
:data:`repro.trace.io.TRACE_FORMAT_VERSION`, or *editing a workload's
generator* therefore changes the key, so stale entries are never read,
only orphaned (v2-era entries linger until ``tools/trace_cache.py
prune``/``clear`` removes them).  Writes go through a temp file and
``os.replace`` so concurrent tracer processes can race on the same
entry safely: last writer wins with identical content.

Corrupt entries (truncated, tampered) fail header/count validation in
:mod:`repro.trace.io`: :meth:`TraceCache.open_batches` treats a bad
header as a miss, and a stream that fails mid-way raises
:class:`ValueError`, on which the session re-traces and overwrites the
entry.

Beside a trace entry, the cache keeps the canonical
:class:`~repro.core.detector.LoopIndex` of that trace under each CLS
capacity a session asked for (:meth:`TraceCache.load_index`,
:meth:`TraceCache.store_index`)::

    <root>/swim-s1-m2000000-v3-1f8a0c93d2e47b56.c16-i1-0b9e27c4a1d3.lix

The index suffix names the CLS capacity, :data:`INDEX_FORMAT_VERSION`
and :func:`index_digest`, a digest of the detector's source
(``core/cls.py``, ``core/events.py``, ``core/detector.py``), so an
edited detector never reads an index an older one built.  The entry
holds the index's :class:`~repro.core.events.EventColumns` raw and
little-endian (layout in :func:`write_index`), closed by a CRC-32 of
every byte before it; a missing, truncated, corrupt or other-version
entry reads as a miss.
"""

import functools
import hashlib
import os
import re
import struct
import zlib
from array import array

from repro.cpu.machine import packed_form
from repro.obs import collector as obs
from repro.trace.io import (
    TRACE_FORMAT_VERSION,
    _BIG_ENDIAN,
    _column_le,
    atomic_writer,
    dump_cf_batches,
    open_cf_batches,
    read_cf_header,
)

#: Bump when the index entry layout changes; index keys include it.
INDEX_FORMAT_VERSION = 1

#: Index entry filename suffix.
INDEX_SUFFIX = ".lix"

_INDEX_MAGIC = b"LIDX"

#: An index entry's file name: trace key, CLS capacity, format version
#: and detector digest.
_INDEX_NAME = re.compile(r"(.+)\.c(\d+)-i(\d+)-([0-9a-f]+)%s\Z"
                         % re.escape(INDEX_SUFFIX))

#: magic, format version, total instructions, CLS capacity, then the
#: counts of event rows, executions, iteration-position keys and
#: iteration positions.
_INDEX_HEAD = struct.Struct("<4sIqqqqqq")
_CRC = struct.Struct("<I")


def program_fingerprint(program):
    """Digest of everything that determines a program's trace: entry
    point, packed instruction stream, and initial data memory.

    This is what makes the cache *content*-keyed: editing a workload
    generator (or the compiler emitting different code) invalidates the
    entry even though name/scale/budget are unchanged.  It is computed
    once per finalized program.
    """
    return program.memoized("fingerprint", _fingerprint)


def _fingerprint(program):
    # The digest of the entry, every packed row's repr in program order
    # and every ``addr:value;`` data word in address order.  Equal rows
    # are shared, so each distinct row is repr'd once, and each part is
    # hashed as one joined bytes object.
    packed = packed_form(program)
    reprs = {row: repr(row) for row in set(packed)}
    h = hashlib.sha256(b"entry=%d;" % program.entry)
    h.update("".join(map(reprs.__getitem__, packed)).encode("ascii"))
    h.update(b"".join([b"%d:%d;" % word
                       for word in sorted(program.data.initial.items())]))
    return h.hexdigest()[:16]


@functools.cache
def index_digest():
    """Digest of the source of the modules that decide a loop index
    (the CLS, its event columns and the detector), computed once per
    process: editing any of them changes every index key."""
    from repro.core import cls, detector, events

    h = hashlib.sha256(b"index=%d;" % INDEX_FORMAT_VERSION)
    for module in (cls, events, detector):
        h.update(module.__spec__.loader.get_data(module.__file__))
    return h.hexdigest()[:12]


def parse_index_name(filename):
    """``(trace key, CLS capacity, current)`` of the index entry file
    *filename*, or ``None`` when it names none; *current* is whether
    this build reads it (its format version and detector digest are
    this build's)."""
    match = _INDEX_NAME.match(filename)
    if match is None:
        return None
    trace_key, capacity, version, digest = match.groups()
    return (trace_key, int(capacity),
            int(version) == INDEX_FORMAT_VERSION
            and digest == index_digest())


def _index_columns(cols):
    """The event-row and the per-execution columns of *cols*, each in
    entry order."""
    return ((cols.etypes, cols.seqs, cols.loops, cols.exec_ids,
             cols.auxs),
            (cols.start_rows, cols.end_rows, cols.end_reasons))


def write_index(index, fh):
    """Write *index* (a :class:`~repro.core.detector.LoopIndex`) as an
    index entry to the binary file object *fh*: the head, the event-row
    columns, the per-execution columns, the iteration-position keys and
    their lengths, every key's positions in key order, and the CRC-32
    of all the bytes before it."""
    cols = index.columns
    positions = cols.iteration_positions
    keys = array("q", positions)
    lengths = array("q", map(len, positions.values()))
    head = _INDEX_HEAD.pack(
        _INDEX_MAGIC, INDEX_FORMAT_VERSION, index.total_instructions,
        index.cls_capacity, len(cols.etypes), len(cols.start_rows),
        len(keys), sum(lengths))
    fh.write(head)
    crc = zlib.crc32(head)
    row_columns, exec_columns = _index_columns(cols)
    for column in (row_columns + exec_columns + (keys, lengths)
                   + tuple(positions.values())):
        if isinstance(column, array):
            column = _column_le(column)
        crc = zlib.crc32(column, crc)
        fh.write(column)
    fh.write(_CRC.pack(crc))


def read_index(fh):
    """The :class:`~repro.core.detector.LoopIndex` of the index entry
    open as the binary file *fh*, each column read straight into its
    array.  Raises :class:`ValueError` on a bad magic or version, a
    file size the declared counts do not give, or a checksum
    mismatch."""
    from repro.core.detector import LoopIndex
    from repro.core.events import EventColumns

    head = fh.read(_INDEX_HEAD.size)
    if len(head) != _INDEX_HEAD.size:
        raise ValueError("truncated loop index entry")
    magic, version, total, capacity, rows, execs, nkeys, npositions = \
        _INDEX_HEAD.unpack(head)
    if magic != _INDEX_MAGIC or version != INDEX_FORMAT_VERSION:
        raise ValueError("not a version %d loop index entry"
                         % INDEX_FORMAT_VERSION)
    size = (_INDEX_HEAD.size + 33 * rows + 17 * execs + 16 * nkeys
            + 8 * npositions + _CRC.size)
    if min(rows, execs, nkeys, npositions) < 0 \
            or os.fstat(fh.fileno()).st_size != size:
        raise ValueError("loop index entry size does not match its "
                         "counts (truncated or tampered?)")
    cols = EventColumns()
    row_columns, exec_columns = _index_columns(cols)
    keys, lengths, flat = array("q"), array("q"), array("q")
    crc = zlib.crc32(head)
    try:
        for columns, count in ((row_columns, rows), (exec_columns, execs),
                               ((keys, lengths), nkeys)):
            for column in columns:
                crc = _fill(fh, column, count, crc)
        crc = _fill(fh, flat, npositions, crc)
    except EOFError:
        raise ValueError("truncated loop index entry") from None
    if _CRC.unpack(fh.read(_CRC.size)) != (crc,):
        raise ValueError("loop index entry checksum mismatch")
    if _BIG_ENDIAN:
        for column in row_columns[1:] + exec_columns[:2] \
                + (keys, lengths, flat):
            column.byteswap()
    if sum(lengths) != npositions or min(lengths, default=0) < 0:
        raise ValueError("loop index entry positions do not add up")
    positions = cols.iteration_positions
    at = 0
    for key, length in zip(keys, lengths):
        positions[key] = flat[at:at + length]
        at += length
    return LoopIndex(cols, total, capacity)


def _fill(fh, column, count, crc):
    """Append *count* items read from *fh* to *column* (an ``array``
    or a ``bytearray``); returns the CRC-32 *crc* continued over
    them."""
    if isinstance(column, array):
        column.fromfile(fh, count)
    else:
        data = fh.read(count)
        if len(data) != count:
            raise EOFError
        column += data
    return zlib.crc32(column, crc)


class TraceCache:
    """On-disk control-flow trace cache rooted at *root*."""

    def __init__(self, root):
        self.root = root

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key(name, scale, max_instructions, fingerprint):
        """Content key; *fingerprint* is :func:`program_fingerprint` of
        the workload's compiled program."""
        return "%s-s%d-m%d-v%d-%s" % (name, scale, max_instructions,
                                      TRACE_FORMAT_VERSION, fingerprint)

    def path(self, name, scale, max_instructions, fingerprint):
        return os.path.join(
            self.root,
            self.key(name, scale, max_instructions, fingerprint) + ".cft")

    def index_path(self, cls_capacity, name, scale, max_instructions,
                   fingerprint):
        """The path of the loop index entry, under a CLS of
        *cls_capacity* entries, of the trace entry the other arguments
        name (the trace entry's key plus the index suffix)."""
        return os.path.join(self.root, "%s.c%d-i%d-%s%s" % (
            self.key(name, scale, max_instructions, fingerprint),
            cls_capacity, INDEX_FORMAT_VERSION, index_digest(),
            INDEX_SUFFIX))

    # -- queries -------------------------------------------------------------

    def has(self, name, scale, max_instructions, fingerprint):
        """True when a loadable entry exists (header is validated)."""
        return self.header(name, scale, max_instructions,
                           fingerprint) is not None

    def header(self, name, scale, max_instructions, fingerprint):
        """The entry's validated :class:`~repro.trace.io.TraceHeader`,
        or ``None`` when there is no loadable entry."""
        path = self.path(name, scale, max_instructions, fingerprint)
        try:
            return read_cf_header(path)
        except (OSError, ValueError):
            return None

    def open_batches(self, name, scale, max_instructions, fingerprint):
        """Columnar streaming access: ``(header, batch_iterator)`` or
        ``None`` -- the session's replay path.

        The iterator yields :class:`~repro.trace.batch.RecordBatch`
        straight off the v3 chunks and raises :class:`ValueError` if
        the file turns out to be truncated mid-stream.
        """
        path = self.path(name, scale, max_instructions, fingerprint)
        try:
            return open_cf_batches(path)
        except (OSError, ValueError):
            return None

    def load_index(self, cls_capacity, name, scale, max_instructions,
                   fingerprint):
        """The stored :class:`~repro.core.detector.LoopIndex` of the
        entry under a CLS of *cls_capacity* entries, or ``None`` when
        there is no usable one (missing, truncated, corrupt or of
        another version)."""
        path = self.index_path(cls_capacity, name, scale,
                               max_instructions, fingerprint)
        try:
            with open(path, "rb") as fh:
                index = read_index(fh)
        except (OSError, ValueError):
            return None
        return index if index.cls_capacity == cls_capacity else None

    # -- writes --------------------------------------------------------------

    def store_index(self, index, name, scale, max_instructions,
                    fingerprint):
        """Atomically write *index*, replacing any entry for its CLS
        capacity; an unwritable cache only skips it."""
        path = self.index_path(index.cls_capacity, name, scale,
                               max_instructions, fingerprint)
        try:
            os.makedirs(self.root, exist_ok=True)
            with atomic_writer(path) as fh:
                write_index(index, fh)
        except OSError:
            pass

    def store(self, trace, name, scale, max_instructions, fingerprint):
        """Atomically write a :class:`~repro.trace.stream.CFTrace` held
        in memory; returns the entry's path."""
        return self._write(trace, trace.batches, name, scale,
                           max_instructions, fingerprint)

    def store_stream(self, tracer, name, scale, max_instructions,
                     fingerprint):
        """Atomically write a trace while it is being generated.

        *tracer* follows the :class:`~repro.cpu.tracer.ChunkedCFTracer`
        protocol: a ``batches()`` generator of
        :class:`~repro.trace.batch.RecordBatch` plus
        ``total_instructions``/``halted``/``program_name`` valid after
        exhaustion.  Columns go from the interpretation loop to disk
        without the whole trace ever being held.
        """
        return self._write(tracer, tracer.batches(), name, scale,
                           max_instructions, fingerprint)

    def _write(self, source, batches, name, scale, max_instructions,
               fingerprint):
        os.makedirs(self.root, exist_ok=True)
        path = self.path(name, scale, max_instructions, fingerprint)
        dump_cf_batches(source, batches, path)
        if obs.active() is not None:
            try:
                obs.add("cache.bytes_written", os.path.getsize(path))
            except OSError:
                pass
        return path
