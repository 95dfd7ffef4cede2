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
"""

import hashlib
import os

from repro.cpu.machine import packed_form
from repro.obs import collector as obs
from repro.trace.io import (
    TRACE_FORMAT_VERSION,
    dump_cf_batches,
    open_cf_batches,
    read_cf_header,
)


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
    h = hashlib.sha256()
    h.update(b"entry=%d;" % program.entry)
    for packed in packed_form(program):
        h.update(repr(packed).encode("ascii"))
    initial = program.data.initial
    for addr in sorted(initial):
        h.update(b"%d:%d;" % (addr, initial[addr]))
    return h.hexdigest()[:16]


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

    # -- writes --------------------------------------------------------------

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
