"""The analysis multiplexer: one replay feeds every registered pass."""

import time


class AnalysisSuite:
    """An ordered collection of :class:`~repro.analysis.base.Analysis`
    passes sharing one event-stream replay.

    The suite is itself shaped like an analysis: the session calls the
    same lifecycle hooks on it and it fans each one out to every
    registered pass.  Record fan-out only touches the passes that
    declared ``wants_records`` (the hot path: records vastly outnumber
    loop events).
    """

    def __init__(self, analyses=()):
        self._analyses = []
        self._names = []
        for analysis in analyses:
            self.add(analysis)
        self._record_consumers = ()
        self._event_consumers = ()
        self._feed_seconds = None   # per-pass timing; obs-enabled only

    def add(self, analysis, name=None):
        """Register a pass (optionally under *name*); returns it."""
        if name is None:
            name = type(analysis).__name__
        self._analyses.append(analysis)
        self._names.append(name)
        return analysis

    @property
    def analyses(self):
        return list(self._analyses)

    @property
    def names(self):
        return list(self._names)

    def __len__(self):
        return len(self._analyses)

    def __getitem__(self, name):
        """The first pass registered under *name*."""
        try:
            return self._analyses[self._names.index(name)]
        except ValueError:
            raise KeyError("no analysis named %r in this suite"
                           % name) from None

    @property
    def wants_records(self):
        """Whether any pass wants records; passes may decide per
        workload in ``begin``, so the session reads this after
        :meth:`begin`."""
        return any(a.wants_records for a in self._analyses)

    # -- lifecycle fan-out ---------------------------------------------------

    def begin(self, ctx):
        from repro.analysis.base import Analysis
        from repro.obs import collector as obs

        # Per-pass feed timing only exists while a collector is active;
        # the disabled fan-out below is byte-for-byte the untimed loop.
        self._feed_seconds = None
        if obs.active() is not None:
            self._pass_names = {
                id(a): name
                for a, name in zip(self._analyses, self._names)}
            self._feed_seconds = {name: 0.0 for name in self._names}
        for analysis in self._analyses:
            analysis.begin(ctx)
        # Hot-path pruning: records/events only reach passes that
        # actually consume them (oracle passes override finish only).
        # wants_records is read after begin, which may clear it for
        # this workload.
        self._record_consumers = tuple(
            a for a in self._analyses if a.wants_records)
        self._event_consumers = tuple(
            a for a in self._analyses
            if type(a).feed is not Analysis.feed)

    def feed_batch(self, batch):
        """Fan one :class:`~repro.trace.batch.RecordBatch` out to every
        record consumer (each falls back to per-record feeding unless
        it overrides :meth:`~repro.analysis.base.Analysis.feed_batch`)."""
        timings = self._feed_seconds
        if timings is None:
            for analysis in self._record_consumers:
                analysis.feed_batch(batch)
            return
        clock = time.perf_counter
        names = self._pass_names
        for analysis in self._record_consumers:
            t0 = clock()
            analysis.feed_batch(batch)
            timings[names[id(analysis)]] += clock() - t0

    def feed(self, event):
        for analysis in self._event_consumers:
            analysis.feed(event)

    @property
    def has_event_consumers(self):
        """Whether any registered pass overrides ``feed``.

        Valid after :meth:`begin`.  When False, the replay loop skips
        the per-event fan-out entirely -- with every stock pass either
        record-fed or finish-time, the loop-event stream usually has no
        takers.
        """
        return bool(self._event_consumers)

    def feed_events(self, events):
        """Fan a list of loop events out to every event consumer,
        event-major (each event reaches every consumer before the
        next), amortizing the dispatch over the whole list."""
        consumers = self._event_consumers
        if not consumers:
            return
        timings = self._feed_seconds
        if timings is not None:
            clock = time.perf_counter
            names = self._pass_names
            for event in events:
                for analysis in consumers:
                    t0 = clock()
                    analysis.feed(event)
                    timings[names[id(analysis)]] += clock() - t0
            return
        if len(consumers) == 1:
            feed = consumers[0].feed
            for event in events:
                feed(event)
            return
        for event in events:
            for analysis in consumers:
                analysis.feed(event)

    def abort(self, ctx):
        for analysis in self._analyses:
            analysis.abort(ctx)

    def finish(self, ctx):
        if self._feed_seconds is None:
            for analysis in self._analyses:
                analysis.finish(ctx)
            return
        from repro.obs import collector as obs

        clock = time.perf_counter
        for analysis, name in zip(self._analyses, self._names):
            t0 = clock()
            analysis.finish(ctx)
            obs.add("analysis.finish_seconds.%s" % name, clock() - t0)
        for name, seconds in self._feed_seconds.items():
            if seconds:
                obs.add("analysis.feed_seconds.%s" % name, seconds)

    def results(self):
        """Every pass's :meth:`result`, in registration order."""
        return [analysis.result() for analysis in self._analyses]
