"""The simulation session: parallel, cache-backed streaming analysis.

:class:`SimulationSession` is the one way experiments obtain results,
traces, and loop indexes.  Its primary entrypoint is :meth:`~
SimulationSession.analyze`: one :class:`~repro.analysis.suite.
AnalysisSuite` of streaming passes, fed from at most one record-stream
replay per workload -- none when no pass needs the stream, as in a
warm run served by the derived store (see ``docs/ANALYSIS.md``).
Underneath, the pipeline

1. fans workload tracing out across a ``ProcessPoolExecutor`` when
   ``config.jobs > 1``, absorbing results in the configured workload
   order so output is deterministic regardless of completion order;
2. persists traces through the content-keyed on-disk
   :class:`~repro.pipeline.cache.TraceCache`, so a warm session skips
   interpretation entirely; and
3. moves every trace as :class:`~repro.trace.batch.RecordBatch`
   columns.  A freshly traced workload is kept as ``(TraceHeader,
   [RecordBatch])``, the shape a cache stream has, and every source --
   the in-memory columns, the cache stream, a pooled v3 payload, a
   retrace after a corrupt cache entry -- feeds the same batched
   replay into :meth:`LoopDetector.feed_batch`.  No record object is
   constructed between the interpreter (or the disk) and the column
   loops.

:meth:`index` and :meth:`indexes` serve loop indexes directly (the
sweep and search path); :meth:`trace` decodes a memoized record-list
view for interactive use.  The old sequential ``SuiteRunner`` shim is
gone (construct a session with ``cache_dir=None`` for its behaviour).
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
        self.replays = 0       #: trace walks: replays + index builds

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
        self._columns = {}  # name -> (TraceHeader, [RecordBatch])
        self._traces = {}   # name -> decoded CFTrace view (trace())
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
        """The control-flow trace of *name* as a record list, decoded
        from its columns and memoized."""
        if name not in self._traces:
            def decode(header, batches, _source):
                return CFTrace.from_batches(header, batches)
            self._traces[name] = self._consume(name, decode)
        return self._traces[name]

    def index(self, name):
        """The loop index of *name*, memoized; cached columns stream
        into the detector without the trace being held."""
        return self._detect(name)[1]

    def _detect(self, name):
        """``(detector, index)`` of *name*, memoized: at most one walk
        of the trace through a canonical detector (counted in
        ``stats.replays``), shared by :meth:`index` and the lazy
        ``ctx.index`` of a skipped replay."""
        detected = self._detected.get(name)
        if detected is None:
            def detect(header, batches, source):
                detector = LoopDetector(
                    cls_capacity=self.config.cls_capacity)
                index = self._walk(
                    name, batches, source,
                    lambda batches: detector.run_batches(
                        batches, header.total_instructions))
                return detector, index
            detected = self._detected[name] = self._consume(name, detect)
        return detected

    def _walk(self, name, batches, source, walk):
        """``walk(batches)`` as one trace walk of *name*: counted in
        ``stats.replays``, its batches tallied by an active collector,
        inside a ``replay`` span."""
        self.stats.replays += 1
        collector = obs.active()
        if collector is not None:
            batches = _tally(batches, collector)
        with obs.span("replay", workload=name, source=source):
            return walk(batches)

    def indexes(self):
        """``(name, index)`` for every workload, in configured order."""
        self.ensure_traced()
        return [(w.name, self.index(w.name)) for w in self._workloads]

    # -- streaming analysis --------------------------------------------------

    def analyze(self, suite):
        """Stream every workload at most once through *suite*.

        The single analysis entrypoint.  Per workload, the suite's
        ``begin`` runs first; then, if any pass wants the record
        stream, any pass overrides ``feed``, or a record-fed timing
        model is configured, the trace's columns (in memory, streamed
        from the cache, or freshly traced) are replayed exactly once
        through the canonical :class:`LoopDetector`: the suite receives
        every record and loop event as it happens and each pass's
        ``finish`` sees the completed index.  Otherwise nothing needs
        the stream, so ``finish`` runs straight away with
        ``total_instructions`` from the trace header and ``ctx.index``
        resolving lazily -- a warm run whose results all sit in the
        derived store walks no trace at all.  ``stats.replays`` counts
        the walks: at most one per workload, however many passes are
        registered.

        Returns ``suite.results()``.
        """
        self.ensure_traced()
        for workload in self._workloads:
            self._analyze_one(workload, suite)
        return suite.results()

    def _analyze_one(self, workload, suite):
        name = workload.name
        ctx = self._context(workload, self._total_instructions(name))
        suite.begin(ctx)
        timing = ctx.timing
        if not (suite.wants_records
                or getattr(suite, "has_event_consumers", True)
                or (timing is not None and timing.wants_records)):
            ctx.defer(lambda: self._detect(name))
            with obs.span("finish", workload=name):
                suite.finish(ctx)
            if ctx.derived is not None:
                ctx.derived.flush()
            return

        contexts = [ctx]

        def replay(header, batches, source):
            return self._replay(suite, contexts[-1], batches, source)

        def abort(header):
            suite.abort(contexts[-1])
            retry = self._context(workload, header.total_instructions)
            contexts.append(retry)
            suite.begin(retry)

        detected = self._consume(name, replay, abort=abort)
        self._detected.setdefault(name, detected)

    def _total_instructions(self, name):
        """*name*'s instruction count, from the trace header alone."""
        columns = self._columns.get(name)
        if columns is not None:
            return columns[0].total_instructions
        header = None
        if self._cache is not None:
            header = self._cache.header(
                name, self.scale,
                self.config.limit_for(self._by_name[name]),
                self._fingerprint(name))
        if header is None:
            header = self._trace_now(name)[0]
        return header.total_instructions

    def _context(self, workload, total):
        from repro.analysis.base import WorkloadContext
        from repro.timing import make_timing

        # One timing-model instance per workload replay: record-fed
        # models accumulate per-workload state, so they must never be
        # shared across workloads (or survive an abort/retry).
        timing = (make_timing(self.config.timing)
                  if self.config.timing is not None else None)
        derived = None
        if self._derived is not None:
            derived = self._derived.store(TraceCache.key(
                workload.name, self.scale,
                self.config.limit_for(workload),
                self._fingerprint(workload.name)))
        return WorkloadContext(
            workload.name, total, workload=workload, scale=self.scale,
            cls_capacity=self.config.cls_capacity, timing=timing,
            derived=derived)

    def _replay(self, suite, ctx, batches, source):
        """One full batched record-stream replay into *suite*, whose
        ``begin(ctx)`` already ran; returns ``(detector, index)`` of
        the canonical detector it installs as ``ctx.detector``.

        *batches* is an iterable of :class:`~repro.trace.batch.
        RecordBatch` (a cached v3 stream, or in-memory columns).  Per
        batch, records fan out to the suite's record consumers and the
        timing model, then the detector's columnar fast path turns
        them into loop events -- event order is identical to the
        per-record replay.
        """
        detector = ctx.detector = LoopDetector(
            cls_capacity=self.config.cls_capacity)
        total = ctx.total_instructions
        wants_records = suite.wants_records
        timing = ctx.timing
        timing_feed = (timing.feed_batch
                       if timing is not None and timing.wants_records
                       else None)
        feed_batch = suite.feed_batch
        detect_batch = detector.feed_batch
        # Loop events only fan out when some pass actually overrides
        # feed(); with every stock pass record-fed or finish-time, the
        # event stream has no takers and the replay is record-only.
        feed_events = None
        if getattr(suite, "has_event_consumers", True):
            feed_events = getattr(suite, "feed_events", None)
            if feed_events is None:       # suite-shaped duck type
                suite_feed = suite.feed

                def feed_events(events):
                    for event in events:
                        suite_feed(event)

        def walk(batches):
            for batch in batches:
                if wants_records:
                    feed_batch(batch)
                if timing_feed is not None:
                    timing_feed(batch)
                events = detect_batch(batch)
                if events and feed_events is not None:
                    feed_events(events)
            events = detector.finish(total)
            if events and feed_events is not None:
                feed_events(events)
            ctx.index = detector.index(total)
            with obs.span("finish", workload=ctx.name):
                suite.finish(ctx)

        self._walk(ctx.name, batches, source, walk)
        if ctx.derived is not None:
            ctx.derived.flush()
        return detector, ctx.index

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
                                limit, cache_dir, pooled=True,
                                observe=observe)
                    for name, limit in pooled]
                # Futures are drained in submission order (the
                # configured workload order), so worker obs events
                # merge deterministically however tracing interleaved.
                for future in futures:
                    name, payload, *events = future.result()
                    results[name] = payload
                    if events and events[0] and collector is not None:
                        collector.absorb(events[0], workload=name)
        # Absorb in configured order so memoization and any downstream
        # iteration see a deterministic sequence.
        for name, limit in missing:
            if name in results:
                self._mark(name, cached=False)
                payload = results[name]
                if payload is not None:
                    # Cacheless pool results arrive through a shared-
                    # memory segment (or raw v3 bytes as the fallback).
                    self._columns[name] = \
                        worker.load_trace_payload(payload)
                # else: the worker streamed it into the cache; replays
                # stream it straight off disk.
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

    def _consume(self, name, consume, abort=None):
        """``consume(header, batches, source)`` over *name*'s trace --
        the in-memory columns, else the cache stream, else a fresh
        inline trace -- and return its result; *source* names which
        (``"memory"``, ``"cache"``, ``"traced"``, ``"retraced"``).

        A cache entry truncated past its (valid) header raises mid-
        stream; *abort(header)* then drops the partially fed state and
        *consume* runs again over a fresh trace, which also overwrites
        the entry.  Exceptions raised by *consume* itself are NOT
        retried -- only the stream's own ValueError is wrapped.
        """
        columns = self._columns.get(name)
        if columns is not None:
            return consume(*columns, "memory")
        stream = self._open_cached(name)
        if stream is None:
            return consume(*self._trace_now(name), "traced")
        header, batches = stream
        try:
            return consume(header, _guard_stream(batches), "cache")
        except _CorruptStream:
            if abort is not None:
                abort(header)
            return consume(*self._trace_now(name), "retraced")

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
        the columns in memory (written to the cache too, if any)."""
        self._mark(name, cached=False)
        workload = self._by_name[name]
        with obs.span("trace", workload=name, mode="inline"):
            _, columns = worker.trace_workload(
                workload, self.scale, self.config.limit_for(workload),
                self.config.cache_dir)
        self._columns[name] = columns
        return columns
