"""The simulation session: parallel, cache-backed analysis.

:class:`SimulationSession` is the one way experiments obtain results:
:meth:`~SimulationSession.analyze` runs one :class:`~repro.analysis.
suite.AnalysisSuite` of passes, finished per workload over a context
whose trace and index load lazily -- at most one trace walk per
workload, none when no pass reads them, as in a warm run served by the
derived store (see ``docs/ANALYSIS.md``).  Underneath, the pipeline

1. traces a workload missing from the cache when its turn comes, or,
   when ``config.jobs > 1``, fans that tracing out across a
   ``ProcessPoolExecutor`` up front, absorbing results in the
   configured workload order so output is deterministic regardless of
   completion order;
2. persists traces through the content-keyed on-disk
   :class:`~repro.pipeline.cache.TraceCache`, so a warm session skips
   interpretation entirely; and
3. moves every trace as :class:`~repro.trace.batch.RecordBatch`
   columns.  A freshly traced workload is kept as a
   :class:`~repro.trace.stream.CFTrace`, whether it was traced inline
   or in a pool worker; a cached one is decoded once when a pass first
   reads it, and a corrupt cache entry is retraced right there, before
   any pass has seen a batch.  No record object is constructed between
   the interpreter (or the disk) and the column loops.

A serial run with a cache holds one workload's trace at a time.  A
trace the session interpreted lives until its workload finished, and
then stays only if the cache does not hold it: without a cache (or
with an unwritable one) the session keeps what it traced, so it never
traces a workload twice; with one, a later read decodes the entry.
:meth:`~SimulationSession.ensure_traced` likewise keeps no trace the
cache holds.  A workload's loop index -- and a trace decoded from the
cache for it -- lives in that workload's context and dies with it:
nothing needs two workloads' indexes at once, and a second
:meth:`~SimulationSession.analyze` walks each trace again.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from repro.core.detector import LoopDetector
from repro.obs import collector as obs
from repro.pipeline import worker
from repro.pipeline.cache import TraceCache, program_fingerprint
from repro.pipeline.derived import DerivedCache
from repro.pipeline.config import PipelineConfig
from repro.trace.stream import CFTrace
from repro.workloads import get, suite


class SessionStats:
    """Counters for what a session actually did (test/bench hooks)."""

    __slots__ = ("traced", "cache_hits", "replays")

    def __init__(self):
        self.traced = 0        #: workloads interpreted by this session
        self.cache_hits = 0    #: workloads served from the on-disk cache
        self.replays = 0       #: trace walks: one per loaded workload


class _CorruptStream(Exception):
    """A cached batch stream raised ValueError mid-iteration."""


def _tally(batches, collector):
    """Re-yield *batches*, adding their count and total length to the
    ``replay.batches``/``replay.records`` counters once exhausted."""
    n_batches = n_records = 0
    for batch in batches:
        n_batches += 1
        n_records += len(batch)
        yield batch
    collector.add("replay.batches", n_batches)
    collector.add("replay.records", n_records)


def _guard_stream(batches):
    """Re-raise the *iterator's* ValueError as :class:`_CorruptStream`
    so truncation is distinguishable from an analysis pass raising
    ValueError of its own."""
    iterator = iter(batches)
    while True:
        try:
            batch = next(iterator)
        except StopIteration:
            return
        except ValueError as exc:
            raise _CorruptStream() from exc
        yield batch


class SimulationSession:
    """Cache-backed, optionally parallel analysis session.

    Construct from a frozen :class:`~repro.pipeline.config.
    PipelineConfig` (or its keyword arguments).  :meth:`analyze` is the
    entrypoint; :meth:`ensure_traced` only traces what is neither in
    memory nor in the cache.
    """

    def __init__(self, config=None, **kwargs):
        if config is None:
            config = PipelineConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a PipelineConfig or keyword "
                            "arguments, not both")
        self.config = config
        self.stats = SessionStats()
        self._workloads = (suite() if config.workloads is None
                           else [get(name) for name in config.workloads])
        self._by_name = {w.name: w for w in self._workloads}
        self._fingerprints = {}
        self._cache = (TraceCache(config.cache_dir)
                       if config.cache_dir is not None else None)
        self._derived = (DerivedCache(config.cache_dir)
                         if config.cache_dir is not None else None)
        self._columns = {}  # name -> CFTrace interpreted; see _release
        self._sources = {}   # name -> "cache" | "traced", first touch

    @property
    def workloads(self):
        return list(self._workloads)

    # -- analysis ------------------------------------------------------------

    def analyze(self, suite):
        """Finish every workload through *suite*.

        The single analysis entrypoint.  Per workload, the suite's
        ``finish`` runs once over a context whose ``total_instructions``
        comes from the trace header and whose ``trace`` and ``index``
        load lazily (:meth:`_load`): the first read loads the trace
        once -- the in-memory columns, else the cache stream decoded,
        else a fresh trace -- and builds the canonical index from that
        copy.  Both are dropped with the context when the workload
        finishes.  ``stats.replays`` counts the loads: at most one per
        workload and call, however many passes are registered, and none
        when no pass reads the trace or index (a warm run whose results
        all sit in the derived store).

        With ``config.jobs == 1`` a workload missing from the cache is
        traced when its turn comes; with more jobs the missing ones are
        traced up front in a process pool.  Either way, once a
        workload finished, the session drops its trace if the cache
        holds it (:meth:`_release`).

        Returns ``suite.results()``.
        """
        self._trace_pooled()
        for workload in self._workloads:
            self._finish(workload, suite)
        return suite.results()

    def _finish(self, workload, suite):
        """Run *suite*'s ``finish`` over *workload*'s context, flush its
        derived store and release its trace; the context dies here."""
        name = workload.name
        ctx = self._context(workload, self._total_instructions(name))
        with obs.span("finish", workload=name):
            suite.finish(ctx)
        if ctx.derived is not None:
            ctx.derived.flush()
        self._release(name)

    def _total_instructions(self, name):
        """*name*'s instruction count, from the trace header alone: the
        in-memory trace's, else the cache entry's (a cache hit), else a
        fresh inline trace's."""
        trace = self._columns.get(name)
        if trace is not None:
            return trace.total_instructions
        header = None
        if self._cache is not None:
            header = self._cache.header(*self._entry(name))
        if header is None:
            header = self._trace_now(name).header
        else:
            self._mark(name, cached=True)
        return header.total_instructions

    def _context(self, workload, total):
        from repro.analysis.base import WorkloadContext

        name = workload.name
        derived = None
        if self._derived is not None:
            derived = self._derived.store(
                TraceCache.key(*self._entry(name)))
        return WorkloadContext(
            name, total, workload=workload, scale=self.config.scale,
            cls_capacity=self.config.cls_capacity,
            timing=self.config.timing, derived=derived,
            resolve=lambda: self._load(name))

    def _load(self, name):
        """``(trace, index)`` of *name* for one workload's analysis: one
        trace walk (counted in ``stats.replays``, tallied by an active
        collector, inside a ``replay`` span) that loads the trace --
        the in-memory columns, else the cache stream decoded in full,
        so a corrupt entry is retraced before any pass sees a batch --
        and runs a fresh canonical detector over that copy.  Nothing
        here keeps either: they die with the workload's context."""
        def load(header, batches, source):
            self.stats.replays += 1
            collector = obs.active()
            if collector is not None:
                batches = _tally(batches, collector)
            with obs.span("replay", workload=name, source=source):
                trace = CFTrace(header, list(batches))
                detector = LoopDetector(
                    cls_capacity=self.config.cls_capacity)
                return trace, detector.run_batches(
                    trace.batches, header.total_instructions)
        return self._consume(name, load)

    # -- pipeline ------------------------------------------------------------

    def ensure_traced(self):
        """Trace every workload that is neither in memory nor in the
        cache, fanning out across ``config.jobs`` processes.  Only
        traces the cache cannot hold stay in memory."""
        self._trace_pooled()
        for name in self._by_name:
            self._total_instructions(name)
            self._release(name)

    def _trace_pooled(self):
        """With ``config.jobs > 1``, trace in a process pool every
        workload that is neither in memory nor in the cache, when more
        than one is, and keep them in memory (until each workload's
        :meth:`_release`); the rest trace inline when first read."""
        if self.config.jobs <= 1:
            return
        missing = [
            (name, self.config.limit_for(workload))
            for name, workload in self._by_name.items()
            if name not in self._columns
            and not (self._cache is not None
                     and self._cache.has(*self._entry(name)))]
        if len(missing) < 2:
            return
        cache_dir = self.config.cache_dir
        collector = obs.active()
        observe = collector is not None
        with ProcessPoolExecutor(
                max_workers=min(self.config.jobs, len(missing))) as pool:
            futures = [
                pool.submit(worker.trace_workload, name,
                            self.config.scale, limit, cache_dir,
                            observe=observe)
                for name, limit in missing]
            # Futures are drained in submission order (the configured
            # workload order), so worker obs events merge
            # deterministically however tracing interleaved.
            for future in futures:
                name, trace, *events = future.result()
                self._mark(name, cached=False)
                self._columns[name] = trace
                if events and events[0] and collector is not None:
                    collector.absorb(events[0], workload=name)

    def _release(self, name):
        """Drop *name*'s in-memory trace when the cache holds it: a
        later read decodes the entry.  A trace the cache does not hold
        (no cache, or an unwritable one) stays, so the session never
        interprets a workload twice."""
        if name in self._columns and self._cache is not None \
                and self._cache.has(*self._entry(name)):
            del self._columns[name]

    # -- internals -----------------------------------------------------------

    def _mark(self, name, cached):
        kind = "cache" if cached else "traced"
        prev = self._sources.get(name)
        if prev == kind or prev == "traced":
            return
        self._sources[name] = kind
        if cached:
            self.stats.cache_hits += 1
        else:
            if prev == "cache":
                # The cache entry turned out corrupt mid-stream and we
                # re-traced; it was never a usable hit.
                self.stats.cache_hits -= 1
            self.stats.traced += 1

    def _entry(self, name):
        """*name*'s cache coordinates ``(name, scale, limit,
        fingerprint)``; the fingerprint is computed once."""
        workload = self._by_name[name]
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            fingerprint = self._fingerprints[name] = program_fingerprint(
                workload.program(self.config.scale))
        return (name, self.config.scale,
                self.config.limit_for(workload), fingerprint)

    def _consume(self, name, consume):
        """``consume(header, batches, source)`` over *name*'s trace --
        the in-memory columns, else the cache stream, else a fresh
        inline trace -- and return its result; *source* names which
        (``"memory"``, ``"cache"``, ``"traced"``, ``"retraced"``).

        A cache entry truncated past its (valid) header raises mid-
        stream; *consume* then runs again over a fresh trace, which
        also overwrites the entry.  Exceptions raised by *consume*
        itself are NOT retried -- only the stream's own ValueError is
        wrapped.
        """
        trace = self._columns.get(name)
        if trace is not None:
            return consume(trace.header, trace.batches, "memory")
        stream = self._open_cached(name)
        if stream is None:
            trace = self._trace_now(name)
            return consume(trace.header, trace.batches, "traced")
        header, batches = stream
        try:
            return consume(header, _guard_stream(batches), "cache")
        except _CorruptStream:
            trace = self._trace_now(name)
            return consume(trace.header, trace.batches, "retraced")

    def _open_cached(self, name):
        """The cache's ``(header, batch_iterator)`` for *name*, or
        ``None`` on a miss (or without a cache)."""
        if self._cache is None:
            return None
        entry = self._entry(name)
        stream = self._cache.open_batches(*entry)
        if stream is None:
            return None
        self._mark(name, cached=True)
        if obs.active() is not None:
            try:
                obs.add("cache.bytes_read",
                        os.path.getsize(self._cache.path(*entry)))
            except OSError:
                pass
        return stream

    def _trace_now(self, name):
        """Trace inline through the shared worker entry point and keep
        the trace in memory (written to the cache too, if any)."""
        self._mark(name, cached=False)
        workload = self._by_name[name]
        with obs.span("trace", workload=name, mode="inline"):
            _, trace = worker.trace_workload(
                workload, self.config.scale,
                self.config.limit_for(workload), self.config.cache_dir)
        self._columns[name] = trace
        return trace
