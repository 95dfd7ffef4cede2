"""The analysis suite: every registered pass, finished per workload."""

import time

from repro.obs import collector as obs


class AnalysisSuite:
    """An ordered collection of :class:`~repro.analysis.base.Analysis`
    passes sharing one :class:`~repro.analysis.base.WorkloadContext`
    per workload, so they share its lazily loaded trace and index and
    its ``ctx.shared`` memo."""

    def __init__(self, analyses=()):
        self._analyses = []
        self._names = []
        for analysis in analyses:
            self.add(analysis)

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

    def finish(self, ctx):
        """Every pass's ``finish(ctx)``, in registration order; while a
        collector is active each pass's seconds add to
        ``analysis.finish_seconds.<name>``."""
        if obs.active() is None:
            for analysis in self._analyses:
                analysis.finish(ctx)
            return
        clock = time.perf_counter
        for analysis, name in zip(self._analyses, self._names):
            t0 = clock()
            analysis.finish(ctx)
            obs.add("analysis.finish_seconds.%s" % name, clock() - t0)

    # ``loopbench/layers.py`` wraps these two by name; nothing calls
    # them, since passes pull ``ctx.trace`` instead of being fed.
    def feed_batch(self, batch):
        """Unused: no record is pushed to a suite."""

    def feed_events(self, events):
        """Unused: no loop event is pushed to a suite."""

    def results(self):
        """Every pass's :meth:`result`, in registration order."""
        return [analysis.result() for analysis in self._analyses]
