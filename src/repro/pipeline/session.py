"""The simulation session: parallel, cache-backed analysis.

:class:`SimulationSession` is the one way experiments obtain results,
traces, and loop indexes.  Its primary entrypoint is :meth:`~
SimulationSession.analyze`: one :class:`~repro.analysis.suite.
AnalysisSuite` of passes, finished per workload over a context whose
trace and index load lazily -- at most one trace walk per workload,
none when no pass reads them, as in a warm run served by the derived
store (see ``docs/ANALYSIS.md``).  Underneath, the pipeline

1. fans workload tracing out across a ``ProcessPoolExecutor`` when
   ``config.jobs > 1``, absorbing results in the configured workload
   order so output is deterministic regardless of completion order;
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

:meth:`index` and :meth:`indexes` serve loop indexes directly, streaming
a cached trace into the detector without holding it; :meth:`trace`
holds a workload's trace in memory for direct use.
"""

import dataclasses
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
        self.replays = 0       #: trace walks: loads + index builds

    def __repr__(self):
        return ("SessionStats(traced=%d, cache_hits=%d, replays=%d)"
                % (self.traced, self.cache_hits, self.replays))


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
    primary entrypoint; :meth:`trace`, :meth:`index`, :meth:`indexes`
    (plus ``scale``/``cls_capacity``/``max_instructions``/``workloads``
    attributes) remain for direct access.
    """

    def __init__(self, config=None, workload_objects=None, **kwargs):
        if config is None:
            config = PipelineConfig(**kwargs)
        elif kwargs:
            raise TypeError("pass either a PipelineConfig or keyword "
                            "arguments, not both")
        self.stats = SessionStats()
        if workload_objects is not None:
            # Explicit objects (possibly unregistered) take precedence
            # over registry lookup by name.
            self._workloads = list(workload_objects)
            names = tuple(w.name for w in self._workloads)
            if config.workloads is None:
                config = dataclasses.replace(config, workloads=names)
            elif config.workloads != names:
                raise ValueError("workload_objects disagree with "
                                 "config.workloads")
        elif config.workloads is None:
            self._workloads = suite()
        else:
            self._workloads = [get(name) for name in config.workloads]
        self.config = config
        self._by_name = {w.name: w for w in self._workloads}
        self._fingerprints = {}
        self._cache = (TraceCache(config.cache_dir)
                       if config.cache_dir is not None else None)
        self._derived = (DerivedCache(config.cache_dir)
                         if config.cache_dir is not None else None)
        self._columns = {}  # name -> CFTrace held in memory
        self._detected = {}  # name -> (LoopDetector, LoopIndex)
        self._sources = {}   # name -> "cache" | "traced", first touch

    # -- direct trace/index surface ------------------------------------------

    @property
    def scale(self):
        return self.config.scale

    @property
    def cls_capacity(self):
        return self.config.cls_capacity

    @property
    def max_instructions(self):
        return self.config.max_instructions

    @property
    def workloads(self):
        return list(self._workloads)

    def trace(self, name):
        """The :class:`~repro.trace.stream.CFTrace` of *name*, held in
        memory from then on, so later walks reuse its columns."""
        if name not in self._columns:
            def keep(header, batches, _source):
                return CFTrace(header, list(batches))
            self._columns[name] = self._consume(name, keep)
        return self._columns[name]

    def index(self, name):
        """The loop index of *name*, memoized; cached columns stream
        into the detector without the trace being held."""
        return self._detect(name)[1]

    def _detect(self, name):
        """``(detector, index)`` of *name*, memoized: at most one walk
        of the trace through a canonical detector, shared by
        :meth:`index` and the contexts of :meth:`analyze`."""
        detected = self._detected.get(name)
        if detected is None:
            detected = self._detected[name] = self._walk(
                name, self._run_detector)
        return detected

    def _load(self, name):
        """``(trace, detector, index)`` of *name* for one workload's
        analysis: one walk that loads the trace -- the in-memory
        columns, else the cache stream decoded in full (so a corrupt
        entry is retraced before any pass sees a batch) -- and builds
        the memoized index from that same copy.  A decoded trace is
        held only by the caller."""
        def load(header, batches):
            trace = CFTrace(header, list(batches))
            detected = self._detected.get(name)
            if detected is None:
                detected = self._detected[name] = self._run_detector(
                    header, trace.batches)
            return (trace,) + detected
        return self._walk(name, load)

    def _run_detector(self, header, batches):
        detector = LoopDetector(cls_capacity=self.config.cls_capacity)
        return detector, detector.run_batches(
            batches, header.total_instructions)

    def _walk(self, name, walk):
        """``walk(header, batches)`` over *name*'s trace as one trace
        walk: counted in ``stats.replays``, its batches tallied by an
        active collector, inside a ``replay`` span."""
        def counted(header, batches, source):
            self.stats.replays += 1
            collector = obs.active()
            if collector is not None:
                batches = _tally(batches, collector)
            with obs.span("replay", workload=name, source=source):
                return walk(header, batches)
        return self._consume(name, counted)

    def indexes(self):
        """``(name, index)`` for every workload, in configured order."""
        self.ensure_traced()
        return [(w.name, self.index(w.name)) for w in self._workloads]

    # -- analysis ------------------------------------------------------------

    def analyze(self, suite):
        """Finish every workload through *suite*.

        The single analysis entrypoint.  Per workload, the suite's
        ``finish`` runs once over a context whose ``total_instructions``
        comes from the trace header and whose ``trace``, ``index`` and
        ``detector`` load lazily (:meth:`_load`): the first read loads
        the trace once -- the in-memory columns, else the cache
        stream decoded, else a fresh trace -- and builds the canonical
        index from that copy.  A trace decoded only for this workload
        is dropped when the workload finishes.  ``stats.replays``
        counts the loads: at most one per workload, however many passes
        are registered, and none when no pass reads the trace or index
        (a warm run whose results all sit in the derived store).

        Returns ``suite.results()``.
        """
        self.ensure_traced()
        for workload in self._workloads:
            name = workload.name
            ctx = self._context(workload, self._total_instructions(name))
            with obs.span("finish", workload=name):
                suite.finish(ctx)
            if ctx.derived is not None:
                ctx.derived.flush()
        return suite.results()

    def _total_instructions(self, name):
        """*name*'s instruction count, from the trace header alone."""
        trace = self._columns.get(name)
        if trace is not None:
            return trace.total_instructions
        header = None
        if self._cache is not None:
            header = self._cache.header(
                name, self.scale,
                self.config.limit_for(self._by_name[name]),
                self._fingerprint(name))
        if header is None:
            header = self._trace_now(name).header
        return header.total_instructions

    def _context(self, workload, total):
        from repro.analysis.base import WorkloadContext

        name = workload.name
        derived = None
        if self._derived is not None:
            derived = self._derived.store(TraceCache.key(
                name, self.scale, self.config.limit_for(workload),
                self._fingerprint(name)))
        return WorkloadContext(
            name, total, workload=workload, scale=self.scale,
            cls_capacity=self.config.cls_capacity,
            timing=self.config.timing, derived=derived,
            resolve=lambda: self._load(name))

    # -- pipeline ------------------------------------------------------------

    def ensure_traced(self, names=None):
        """Trace every listed workload (default: all) that is neither in
        memory nor in the cache, fanning out across ``config.jobs``
        processes."""
        if names is None:
            names = [w.name for w in self._workloads]
        else:
            names = [self._get(n).name for n in names]
        missing = []
        for name in names:
            if name in self._columns:
                continue
            limit = self.config.limit_for(self._by_name[name])
            if self._cache is not None and self._cache.has(
                    name, self.scale, limit, self._fingerprint(name)):
                self._mark(name, cached=True)
                continue
            missing.append((name, limit))
        if not missing:
            return
        # Unregistered workload objects cannot be resolved by name in a
        # child process; those trace inline below.
        pooled = [(n, l) for n, l in missing if self._poolable(n)]
        if self.config.jobs == 1 or len(pooled) <= 1:
            pooled = []
        results = {}
        if pooled:
            cache_dir = self.config.cache_dir
            collector = obs.active()
            observe = collector is not None
            with ProcessPoolExecutor(
                    max_workers=min(self.config.jobs,
                                    len(pooled))) as pool:
                futures = [
                    pool.submit(worker.trace_workload, name, self.scale,
                                limit, cache_dir, observe=observe)
                    for name, limit in pooled]
                # Futures are drained in submission order (the
                # configured workload order), so worker obs events
                # merge deterministically however tracing interleaved.
                for future in futures:
                    name, trace, *events = future.result()
                    results[name] = trace
                    if events and events[0] and collector is not None:
                        collector.absorb(events[0], workload=name)
        # Absorb in configured order so memoization and any downstream
        # iteration see a deterministic sequence.
        for name, limit in missing:
            if name in results:
                self._mark(name, cached=False)
                self._columns[name] = results[name]
            else:
                self._trace_now(name)

    # -- internals -----------------------------------------------------------

    def _get(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError("workload %r not in this session" % name) \
                from None

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

    def _fingerprint(self, name):
        fingerprint = self._fingerprints.get(name)
        if fingerprint is None:
            fingerprint = program_fingerprint(
                self._by_name[name].program(self.scale))
            self._fingerprints[name] = fingerprint
        return fingerprint

    def _poolable(self, name):
        """A child process resolves names through the registry; only
        workloads whose name maps back to the same object can be
        traced in the pool."""
        try:
            return get(name) is self._by_name[name]
        except KeyError:
            return False

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
        limit = self.config.limit_for(self._by_name[name])
        fingerprint = self._fingerprint(name)
        stream = self._cache.open_batches(name, self.scale, limit,
                                          fingerprint)
        if stream is None:
            return None
        self._mark(name, cached=True)
        if obs.active() is not None:
            try:
                obs.add("cache.bytes_read", os.path.getsize(
                    self._cache.path(name, self.scale, limit,
                                     fingerprint)))
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
                workload, self.scale, self.config.limit_for(workload),
                self.config.cache_dir)
        self._columns[name] = trace
        return trace
