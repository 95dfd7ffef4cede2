"""Runner-side instrumentation lifecycle: one object, one code path.

:class:`RunObserver` is how every front end (``runner``, ``runner
sweep``, ``runner search``) drives the obs layer: it owns the
:class:`~repro.obs.collector.Collector` (activated only when the user
asked for instrumentation via ``--metrics``, ``--timeline``, or
``--profile-run``), the optional :mod:`cProfile` profiler, manifest
writing (including the :data:`~repro.obs.manifest.LAST_RUN_MANIFEST`
copies the maintenance CLIs read), and the post-run rendering -- the
span timeline and the cProfile table come from this one place, which
is what makes ``--profile-run`` an alias into the obs layer rather
than a parallel mechanism.

When nothing was requested the observer is inert: no collector is
activated, :meth:`profiled` is a no-op context, :meth:`finalize`
returns immediately -- the default run's output and hot path are
untouched.
"""

import sys
from contextlib import contextmanager

from repro.obs.collector import Collector, activate, deactivate

__all__ = ["RunObserver"]


class RunObserver:
    """Instrumentation for one CLI invocation.

    *metrics_path* enables manifest writing; *timeline* prints the
    per-stage breakdown after the run; *profile_lines* (an int) runs
    the observed region under cProfile and prints the top-N table.
    Any of the three activates the collector.  *copy_dirs* lists
    directories (trace cache, sweep store) that get a
    ``last-run-manifest.json`` copy when ``--metrics`` was used.
    """

    def __init__(self, metrics_path=None, timeline=False,
                 profile_lines=None, argv=None, command="run",
                 copy_dirs=()):
        self.metrics_path = metrics_path
        self.timeline = timeline
        self.profile_lines = profile_lines
        self.argv = argv
        self.command = command
        self.copy_dirs = [d for d in copy_dirs if d is not None]
        self.enabled = (metrics_path is not None or timeline
                        or profile_lines is not None)
        self.collector = Collector() if self.enabled else None
        self.manifest = None
        self._profiler = None
        self._activated = False
        if profile_lines is not None:
            import cProfile
            self._profiler = cProfile.Profile()

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self):
        if self.collector is not None:
            activate(self.collector)
            self._activated = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._activated:
            deactivate()
            self._activated = False
        return False

    @contextmanager
    def profiled(self):
        """Run the enclosed block under cProfile when ``--profile-run``
        asked for it; otherwise a plain pass-through."""
        if self._profiler is None:
            yield
            return
        self._profiler.enable()
        try:
            yield
        finally:
            self._profiler.disable()

    # -- emission ------------------------------------------------------------

    def record_session(self, session):
        """Mirror a finished session's :class:`~repro.pipeline.session.
        SessionStats` into counters (the manifest's source of truth for
        cache hit/miss and replay totals) and tag the kernel backend."""
        if self.collector is None:
            return
        from repro.trace.kernels import backend

        stats = session.stats
        self.collector.add("pipeline.replays", stats.replays)
        self.collector.add("pipeline.cache_hits", stats.cache_hits)
        self.collector.add("pipeline.traced", stats.traced)
        self.collector.gauge("kernels.backend", backend())

    def finalize(self, extra_meta=None, stream=None):
        """Gauge the process's peak resident set so far
        (``process.peak_rss_mb``), build the manifest, write artifacts
        and print opt-in reports.

        Called once, after the run's results were emitted (so the
        timeline/cProfile sections land after them, exactly where
        ``--profile-run`` always printed).  Returns the manifest dict
        (or ``None`` when the observer is inert).
        """
        if self.collector is None:
            return None
        if self._activated:
            deactivate()
            self._activated = False
        import resource
        from repro.obs.manifest import LAST_RUN_MANIFEST, \
            build_manifest, write_manifest
        from repro.obs.timeline import render_timeline

        # ru_maxrss is in KiB on Linux (bytes on macOS).
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.collector.gauge("process.peak_rss_mb", round(
            peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 1))

        out = sys.stdout if stream is None else stream
        self.manifest = build_manifest(self.collector, argv=self.argv,
                                       command=self.command,
                                       extra=extra_meta)
        if self.metrics_path is not None:
            write_manifest(self.manifest, self.metrics_path)
            print("[metrics: %s]" % self.metrics_path, file=sys.stderr)
            import os
            for directory in self.copy_dirs:
                try:
                    write_manifest(
                        self.manifest,
                        os.path.join(directory, LAST_RUN_MANIFEST),
                        events=False)
                except OSError:
                    pass    # best effort: a read-only cache dir is fine
        if self.timeline:
            print(file=out)
            print(render_timeline(self.manifest), file=out)
        if self._profiler is not None:
            import pstats
            # Caveat: cProfile's tracing overhead inflates tight Python
            # loops severalfold; read this as "where the time goes",
            # not as absolute wall time.
            print(file=out)
            print("[cProfile: top %d by cumulative time]"
                  % self.profile_lines, file=out)
            stats = pstats.Stats(self._profiler, stream=out)
            stats.sort_stats("cumulative")
            stats.print_stats(self.profile_lines)
        return self.manifest
