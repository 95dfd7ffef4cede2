"""The simulation session: parallel, cache-backed analysis.

:class:`SimulationSession` is the one way experiments obtain results:
:meth:`~SimulationSession.analyze` runs one :class:`~repro.analysis.
suite.AnalysisSuite` of passes, finished per workload over a context
whose trace and index load lazily -- at most one trace walk per
workload, none when no pass reads them, as in a warm run served by the
derived store (see ``docs/ANALYSIS.md``).  Underneath, the pipeline

1. with ``config.jobs > 1`` and two or more workloads missing from the
   cache, first fills it in a ``ProcessPoolExecutor``: each pool task
   traces one workload into the cache and hands back nothing but its
   obs events, absorbed in the configured workload order so output is
   deterministic regardless of completion order;
2. then finishes every workload serially: its first touch reads the
   cache entry's header, or traces it inline (written to the
   content-keyed :class:`~repro.pipeline.cache.TraceCache` too, so a
   warm session skips interpretation entirely); and
3. moves every trace as :class:`~repro.trace.batch.RecordBatch`
   columns: a fresh :class:`~repro.trace.stream.CFTrace` from the
   inline interpreter, or the cache entry decoded in full when a pass
   first reads it -- a corrupt entry is retraced right there, before
   any pass has seen a batch.  No record object is constructed between
   the interpreter (or the disk) and the column loops.

No trace crosses a process boundary: the cache is the only hand-over
from a pool worker.  A trace lives until its workload finished, and no
longer: it goes into that workload's context with its loop index and
dies with it, so a run holds one workload's trace at a time.  The
session itself keeps none, so a second :meth:`~SimulationSession.
analyze` reads each trace again -- from the cache, or, without one, by
tracing again.
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


class SimulationSession:
    """Cache-backed, optionally parallel analysis session.

    Construct from a frozen :class:`~repro.pipeline.config.
    PipelineConfig` (or its keyword arguments).  :meth:`analyze` is the
    entrypoint; :meth:`ensure_traced` only fills the cache.
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
        self._cache = (TraceCache(config.cache_dir)
                       if config.cache_dir is not None else None)
        self._derived = (DerivedCache(config.cache_dir)
                         if config.cache_dir is not None else None)
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
        once -- the fresh trace the workload's first touch produced,
        else the cache entry decoded -- and builds the canonical index
        from it.  Both die with the context when the workload finishes.
        ``stats.replays`` counts the loads: at most one per workload
        and call, however many passes are registered, and none when no
        pass reads the trace or index (a warm run whose results all sit
        in the derived store).

        With ``config.jobs > 1`` and two or more workloads missing
        from the cache, they are traced in a process pool first (as
        :meth:`ensure_traced` does); a workload still missing is traced
        when its turn comes, so a lone miss is analyzed from the fresh
        trace rather than decoded back from the cache.

        Returns ``suite.results()``.
        """
        if self.config.jobs > 1:
            self._trace_pooled()
        for workload in self._workloads:
            self._finish(workload, suite)
        return suite.results()

    def _finish(self, workload, suite):
        """Run *suite*'s ``finish`` over *workload*'s context and flush
        its derived store; the context, and any trace, dies here."""
        name = workload.name
        header, trace = self._first_touch(name)
        ctx = self._context(workload, header.total_instructions, trace)
        with obs.span("finish", workload=name):
            suite.finish(ctx)
        if ctx.derived is not None:
            ctx.derived.flush()

    def _first_touch(self, name):
        """*name*'s ``(header, trace or None)``: the cache entry's
        header (a cache hit, no trace), else a fresh inline trace."""
        if self._cache is not None:
            header = self._cache.header(*self._entry(name))
            if header is not None:
                self._mark(name, cached=True)
                return header, None
        trace = self._trace_now(name)
        return trace.header, trace

    def _context(self, workload, total, trace):
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
            resolve=lambda: self._load(name, trace))

    def _load(self, name, trace):
        """``(trace, index)`` of *name* for one workload's analysis: one
        trace walk (counted in ``stats.replays``, tallied by an active
        collector, inside a ``replay`` span) that decodes the cache
        entry in full unless the first touch traced *trace* inline -- a
        corrupt entry is retraced before any pass sees a batch -- and
        runs a fresh canonical detector over it.  Nothing here keeps
        either: they die with the workload's context."""
        self.stats.replays += 1
        source = "cache" if trace is None else "memory"
        with obs.span("replay", workload=name, source=source):
            if trace is None:
                trace = self._decode(name)
            obs.add("replay.batches", len(trace.batches))
            obs.add("replay.records", sum(map(len, trace.batches)))
            detector = LoopDetector(cls_capacity=self.config.cls_capacity)
            return trace, detector.run_batches(
                trace.batches, trace.header.total_instructions)

    def _decode(self, name):
        """*name*'s cache entry as a :class:`CFTrace`, or a fresh trace
        when the entry is gone or turns out corrupt past its header
        (which also overwrites the entry; the failed walk counts as a
        replay of its own)."""
        entry = self._entry(name)
        stream = self._cache.open_batches(*entry)
        if stream is not None:
            if obs.active() is not None:
                try:
                    obs.add("cache.bytes_read",
                            os.path.getsize(self._cache.path(*entry)))
                except OSError:
                    pass
            header, batches = stream
            try:
                return CFTrace(header, list(batches))
            except ValueError:
                self.stats.replays += 1     # the walk that failed
        return self._trace_now(name)

    # -- pipeline ------------------------------------------------------------

    def ensure_traced(self):
        """Fill the cache with every workload it lacks; keep no trace.
        With ``config.jobs > 1`` and more than one workload missing,
        each is traced by one pool task (:func:`~repro.pipeline.worker.
        trace_into_cache`), else inline.  Fills nothing when the cache
        directory cannot be created, and raises :class:`ValueError` on
        a session without a cache: either way the traces would only be
        discarded."""
        if self._cache is None:
            raise ValueError("ensure_traced() fills the trace cache; "
                             "this session has none")
        for name in self._trace_pooled():
            self._trace_now(name)

    def _trace_pooled(self):
        """With ``config.jobs > 1`` and more than one workload missing
        from the cache, trace each in one pool task.  Returns the names
        left to trace inline: none when the cache directory cannot be
        created, since the cache could not keep them."""
        missing = []
        for name in self._by_name:
            if self._cache.has(*self._entry(name)):
                self._mark(name, cached=True)
            else:
                missing.append(name)
        try:
            os.makedirs(self.config.cache_dir, exist_ok=True)
        except OSError:
            return []
        if self.config.jobs <= 1 or len(missing) < 2:
            return missing
        collector = obs.active()
        with ProcessPoolExecutor(
                max_workers=min(self.config.jobs, len(missing))) as pool:
            futures = [
                pool.submit(worker.trace_into_cache, name,
                            self.config.scale,
                            self.config.limit_for(self._by_name[name]),
                            self.config.cache_dir,
                            observe=collector is not None)
                for name in missing]
            # Drained in submission order (the configured workload
            # order), so worker obs events merge deterministically
            # however tracing interleaved.
            for future in futures:
                name, events = future.result()
                self._mark(name, cached=False)
                if events:
                    collector.absorb(events, workload=name)
        return []

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
        fingerprint)``."""
        workload = self._by_name[name]
        return (name, self.config.scale, self.config.limit_for(workload),
                program_fingerprint(workload.program(self.config.scale)))

    def _trace_now(self, name):
        """Trace inline through the shared worker entry point (written
        to the cache too, if any) and return the trace."""
        self._mark(name, cached=False)
        workload = self._by_name[name]
        with obs.span("trace", workload=name, mode="inline"):
            _, trace = worker.trace_workload(
                workload, self.config.scale,
                self.config.limit_for(workload), self.config.cache_dir)
        return trace
