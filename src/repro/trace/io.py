"""Trace (de)serialization.

Control-flow traces are persisted so experiment pipelines can cache the
expensive interpretation step (the on-disk trace cache in
:mod:`repro.pipeline.cache` builds on this module).  There is one
format, **v3** (binary, columnar): a struct-packed header followed by
column chunks that map one-to-one onto
:class:`~repro.trace.batch.RecordBatch`.  Layout, all little-endian::

    magic  b"CFT3"
    header <H name_len> <name bytes> <q total> <B halted> <q records>
    chunk  <I count> <I payload_len> zlib(seqs[count]x q
           | pcs[count]x q | kinds[count]x b | takens[count]x b
           | targets[count]x q)
    end    <I 0xFFFFFFFF>

Each chunk's concatenated column bytes are zlib-compressed (the 64-bit
columns are mostly zero bytes, so the cache stays small while decoding
stays a C-speed ``decompress`` straight into zero-copy column views;
files opened by path are additionally memory-mapped so the compressed
payloads are never copied out of the page cache).  ``records`` in the
header is the declared total; the end marker must be followed by
end-of-file.  Readers raise :class:`ValueError` on a bad magic (which
includes the retired v1/v2 text formats), a truncated or undecodable
chunk, a record-count mismatch, or trailing garbage -- a v3 file is
either bit-exact or rejected.

One writer (:class:`BatchTraceWriter`, driven by
:func:`dump_cf_batches`) and one chunk walker (:func:`_batches_v3`)
serve every path.  :func:`open_cf_batches` streams a file's batches;
:func:`load_cf_trace` and :func:`loads_cf_trace` read a whole file or
buffer into a :class:`~repro.trace.stream.CFTrace` (header plus batch
list), and :func:`dump_cf_trace` writes one back, one chunk per batch.

Full traces are not serialized (they are cheap to regenerate at the
scales the data-speculation study uses, and enormous on disk).
"""

import contextlib
import io
import mmap
import os
import struct
import sys
import zlib
from array import array
from typing import NamedTuple

from repro.trace.batch import RecordBatch
from repro.trace.stream import CFTrace

#: v3 file magic.
MAGIC_V3 = b"CFT3"

#: Bump when the on-disk record layout changes; cache keys include it.
TRACE_FORMAT_VERSION = 3

#: v3 end-of-chunks marker (an impossible chunk record count).
_END_MARKER = 0xFFFFFFFF

#: Upper bound on a single v3 chunk's declared record count; anything
#: larger is treated as corruption rather than attempted as an
#: allocation.
_MAX_CHUNK_RECORDS = 1 << 28

_NAME_STRUCT = struct.Struct("<H")
_META_STRUCT = struct.Struct("<qBq")      # total, halted, records
_COUNT_STRUCT = struct.Struct("<I")

_BIG_ENDIAN = sys.byteorder == "big"


class TraceHeader(NamedTuple):
    """Parsed trace-file header."""

    version: int
    program_name: str
    total_instructions: int
    halted: bool
    records: int              #: declared record count


# -- binary v3 primitives ----------------------------------------------------

class _BufferReader:
    """Minimal binary file facade over a bytes-like buffer (an mmap'd
    trace file, plain ``bytes``).

    ``read`` returns **zero-copy** :class:`memoryview` slices, so the
    v3 reader's framing fields and compressed chunk payloads are never
    copied out of the underlying buffer; ``close`` releases the view
    and any owned backing resources (mapping, file handle).  Only the
    surface the v3 reader uses is implemented.
    """

    __slots__ = ("_view", "_pos", "_mm", "_fh")

    def __init__(self, buf, mm=None, fh=None):
        self._view = memoryview(buf)
        self._pos = 0
        self._mm = mm
        self._fh = fh

    def read(self, n):
        view = self._view
        if view is None:
            return b""
        data = view[self._pos:self._pos + n]
        self._pos += len(data)
        return data

    def close(self):
        view, self._view = self._view, None
        if view is not None:
            view.release()
        mm, self._mm = self._mm, None
        if mm is not None:
            try:
                mm.close()
            except BufferError:
                # A still-referenced slice pins the mapping; it closes
                # with the last view.
                pass
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


def _mmap_reader(fh):
    """A zero-copy :class:`_BufferReader` over *fh*'s mapped contents,
    or ``None`` when the file cannot be mapped (empty file, pipe,
    exotic filesystem) -- callers fall back to plain reads."""
    try:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError, io.UnsupportedOperation):
        return None
    return _BufferReader(mm, mm=mm, fh=fh)


def _exactly(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated or tampered v3 trace: short read in %s"
                         % what)
    return data


def _read_header_v3(fh):
    magic = fh.read(len(MAGIC_V3))
    if magic != MAGIC_V3:
        if not isinstance(magic, str):      # text-mode file objects
            magic = bytes(magic)
        raise ValueError("not a v3 cftrace file (bad magic %r)"
                         % (magic,))
    (name_len,) = _NAME_STRUCT.unpack(_exactly(fh, _NAME_STRUCT.size,
                                               "header"))
    name = bytes(_exactly(fh, name_len, "header")).decode(
        "utf-8", errors="replace")
    total, halted, records = _META_STRUCT.unpack(
        _exactly(fh, _META_STRUCT.size, "header"))
    if records < 0 or total < 0:
        raise ValueError("v3 trace header was never finalized "
                         "(writer did not close?)")
    return TraceHeader(3, name, total, bool(halted), records)


def _column_array(typecode, data):
    column = array(typecode)
    column.frombytes(data)
    if _BIG_ENDIAN and column.itemsize > 1:
        column.byteswap()
    return column


def _column_le(column):
    """*column* as a little-endian buffer."""
    if _BIG_ENDIAN and column.itemsize > 1:
        typecode = getattr(column, "typecode", None) or column.format
        swapped = array(typecode, column)
        swapped.byteswap()
        return swapped
    return column


def _read_chunk_v3(fh, count):
    (payload_len,) = _COUNT_STRUCT.unpack(
        _exactly(fh, _COUNT_STRUCT.size, "chunk"))
    raw = count * 26
    # zlib never usefully expands input beyond a few header bytes per
    # block, so a payload larger than the raw column bytes (plus
    # slack) is corruption -- reject before allocating anything.
    if payload_len > raw + 1024:
        raise ValueError("malformed v3 chunk payload length %d for %d "
                         "records" % (payload_len, count))
    try:
        decomp = zlib.decompressobj()
        # Bounded decode: a tampered payload (zlib bomb) may inflate
        # far past the declared record count; cap the output at one
        # byte over the expected size so oversized streams fail the
        # length check below instead of exhausting memory.
        payload = decomp.decompress(_exactly(fh, payload_len, "chunk"),
                                    raw + 1)
    except zlib.error:
        raise ValueError("corrupt v3 chunk (zlib decode failed)") \
            from None
    if len(payload) != raw or not decomp.eof or decomp.unused_data:
        raise ValueError(
            "v3 chunk declares %d records but decodes to %d bytes "
            "(truncated or tampered?)" % (count, len(payload)))
    view = memoryview(payload)
    q = count * 8
    if not _BIG_ENDIAN:
        # Zero-copy decode: the columns are typed views straight over
        # the decompressed payload -- no per-column copies.  Batches
        # are immutable, so the read-only views are fully equivalent
        # to the arrays the copying path builds.
        return RecordBatch(
            view[:q].cast("q"),
            view[q:2 * q].cast("q"),
            view[2 * q:2 * q + count].cast("b"),
            view[2 * q + count:2 * q + 2 * count].cast("b"),
            view[2 * q + 2 * count:].cast("q"))
    seqs = _column_array("q", view[:q])
    pcs = _column_array("q", view[q:2 * q])
    kinds = _column_array("b", view[2 * q:2 * q + count])
    takens = _column_array("b", view[2 * q + count:2 * q + 2 * count])
    targets = _column_array("q", view[2 * q + 2 * count:])
    return RecordBatch(seqs, pcs, kinds, takens, targets)


def _batches_v3(fh, header):
    """Generate the batches after *header*, enforcing the count, end
    marker and end-of-file invariants -- the one v3 chunk walker."""
    seen = 0
    while True:
        (count,) = _COUNT_STRUCT.unpack(
            _exactly(fh, _COUNT_STRUCT.size, "chunk count"))
        if count == _END_MARKER:
            break
        if count == 0 or count > _MAX_CHUNK_RECORDS:
            raise ValueError("malformed v3 chunk record count %d" % count)
        yield _read_chunk_v3(fh, count)
        seen += count
        if seen > header.records:
            break    # fail the count check below with the real total
    _check_count(header, seen)
    if fh.read(1):
        raise ValueError("trailing garbage after v3 end marker")


def _closing(fh, items):
    """Re-yield *items*; closes *fh* when exhausted or garbage-collected."""
    try:
        yield from items
    finally:
        fh.close()


def _write_chunk_v3(fh, batch):
    # The columns stream through one compressor: the same deflate
    # stream as compressing their concatenation, without the raw
    # copies (up to 1.7 MB per chunk) that would churn the heap.
    # Level 1 deflates about 6x faster than the default level 6 for
    # chunks about 19% larger; readers accept any level.
    comp = zlib.compressobj(1)
    parts = [comp.compress(_column_le(column))
             for column in (batch.seqs, batch.pcs, batch.kinds,
                            batch.takens, batch.targets)]
    parts.append(comp.flush())
    fh.write(_COUNT_STRUCT.pack(len(batch)))
    fh.write(_COUNT_STRUCT.pack(sum(map(len, parts))))
    for part in parts:
        fh.write(part)


# -- writing -----------------------------------------------------------------

@contextlib.contextmanager
def atomic_writer(path):
    """A binary file handle that atomically replaces *path* on success
    and leaves no temp file behind on error."""
    tmp = "%s.tmp.%d" % (path, os.getpid())
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class BatchTraceWriter:
    """Streaming v3 writer: batches in, columnar chunks out.

    The header's ``total``/``halted``/``records`` fields sit at a fixed
    offset (the program name's length is known up front), are written
    as ``-1`` placeholders, and are back-patched by :meth:`close` -- so
    a file abandoned mid-write fails validation instead of loading
    short.  The file object must be binary and seekable.
    """

    def __init__(self, fh, program_name):
        self._fh = fh
        self._count = 0
        name = program_name.encode("utf-8")
        try:
            fh.write(MAGIC_V3)
        except TypeError:
            raise TypeError("v3 traces are binary; pass a binary-mode file "
                            "object (or a path)") from None
        fh.write(_NAME_STRUCT.pack(len(name)))
        fh.write(name)
        self._meta_offset = (len(MAGIC_V3) + _NAME_STRUCT.size
                             + len(name))
        fh.write(_META_STRUCT.pack(-1, 0, -1))

    def write_batch(self, batch):
        """Append one :class:`RecordBatch` as a chunk."""
        if len(batch):
            _write_chunk_v3(self._fh, batch)
            self._count += len(batch)

    def close(self, total_instructions, halted):
        """Write the end marker and back-patch the real header."""
        fh = self._fh
        fh.write(_COUNT_STRUCT.pack(_END_MARKER))
        fh.seek(self._meta_offset)
        fh.write(_META_STRUCT.pack(total_instructions,
                                   1 if halted else 0, self._count))

    @property
    def records_written(self):
        return self._count


def dump_cf_batches(source, batches, path_or_file):
    """Write *batches* as one v3 trace to a path (atomically) or a
    binary, seekable file object.

    *source* names the program up front and supplies
    ``total_instructions``/``halted`` once *batches* is exhausted: a
    :class:`TraceHeader`, a :class:`~repro.trace.stream.CFTrace`, or a
    :class:`~repro.cpu.tracer.ChunkedCFTracer` whose ``batches()``
    generator *batches* is.
    """
    if not hasattr(path_or_file, "write"):
        with atomic_writer(path_or_file) as fh:
            dump_cf_batches(source, batches, fh)
        return
    writer = BatchTraceWriter(path_or_file, source.program_name)
    for batch in batches:
        writer.write_batch(batch)
    writer.close(source.total_instructions, source.halted)


def dump_cf_trace(trace, path_or_file):
    """Write a :class:`~repro.trace.stream.CFTrace` as v3, one chunk
    per batch (see :func:`dump_cf_batches`)."""
    dump_cf_batches(trace, trace.batches, path_or_file)


# -- reading -----------------------------------------------------------------

def load_cf_trace(path_or_file):
    """Read a v3 trace (a path or a binary file object) into a
    :class:`~repro.trace.stream.CFTrace`."""
    if not hasattr(path_or_file, "read"):
        with open(path_or_file, "rb") as fh:
            return _load(fh)
    return _load(path_or_file)


def _load(fh):
    header = _read_header_v3(fh)
    return CFTrace(header, list(_batches_v3(fh, header)))


def _check_count(header, seen):
    if seen != header.records:
        raise ValueError(
            "trace declares %d records but file contains %d "
            "(truncated or tampered?)" % (header.records, seen))


def read_cf_header(path_or_file):
    """Read only the header of a v3 trace (a path or a binary file
    object)."""
    if not hasattr(path_or_file, "read"):
        with open(path_or_file, "rb") as fh:
            return _read_header_v3(fh)
    return _read_header_v3(path_or_file)


def open_cf_batches(path):
    """Open *path* for batch streaming: ``(header, batch_iterator)``.

    The iterator yields :class:`~repro.trace.batch.RecordBatch` without
    holding the whole trace in memory, validates the declared record
    count (raising :class:`ValueError` on truncation mid-stream), and
    closes the file when exhausted or garbage-collected.

    The file is **memory-mapped**: framing fields and compressed
    payloads are read as zero-copy views of the page cache, and each
    chunk decompresses straight into the batch's column views (see
    :func:`_read_chunk_v3`) -- the warm-cache replay path allocates one
    payload buffer per chunk and nothing else.
    """
    fh = open(path, "rb")
    try:
        mapped = _mmap_reader(fh)
        if mapped is not None:
            fh = mapped
        header = _read_header_v3(fh)
    except BaseException:
        fh.close()
        raise
    return header, _closing(fh, _batches_v3(fh, header))


# -- string/bytes helpers ----------------------------------------------------

def dumps_cf_trace(trace):
    """Serialize to v3 ``bytes`` -- the round-trip helper for tests."""
    buf = io.BytesIO()
    dump_cf_trace(trace, buf)
    return buf.getvalue()


def loads_cf_trace(data):
    """Inverse of :func:`dumps_cf_trace`: a
    :class:`~repro.trace.stream.CFTrace` from a v3 trace in any
    bytes-like buffer (``bytes``, ``memoryview``).  The buffer is
    parsed zero-copy, and no view of *data* outlives the call: each
    batch owns its decompressed columns."""
    reader = _BufferReader(data)
    try:
        return _load(reader)
    finally:
        reader.close()
