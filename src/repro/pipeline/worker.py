"""Process-pool worker for parallel workload tracing.

:func:`trace_workload` is the single tracing entry point for both the
inline (``jobs=1``) and pooled paths of
:class:`~repro.pipeline.session.SimulationSession`, so tests can count
or stub interpretation in one place.  It must stay importable at module
top level (the pool pickles it by reference) and must not depend on any
parent-process state beyond its arguments: under the ``spawn`` start
method a fresh interpreter imports this module and nothing else.

Both paths get the same thing back: the trace's
:class:`~repro.trace.stream.CFTrace`, written to the v3 cache first
when there is one.  Inline callers pass the Workload object itself
(which also supports unregistered workloads); pooled callers pass the
workload *name*, resolved through the registry in the child, and the
trace comes back over the pool's result pipe as an ordinary pickle.
"""

from repro.cpu.tracer import ChunkedCFTracer
from repro.obs import collector as obs
from repro.pipeline.cache import TraceCache, program_fingerprint


def trace_workload(workload, scale=1, max_instructions=None,
                   cache_dir=None, observe=False):
    """Trace one workload (a registered name or a Workload object).

    Returns ``(name, CFTrace)``; the trace is stored in the cache
    under *cache_dir* first, when one is given.

    With ``observe=True`` (pooled callers whose parent session has an
    active obs collector) the work runs under a worker-local
    :class:`~repro.obs.collector.Collector` and the return value grows
    a third element -- its :meth:`~repro.obs.collector.Collector.
    export` -- which rides the result pipe alongside the trace for
    the parent to :meth:`~repro.obs.collector.Collector.absorb`.

    ``max_instructions=None`` uses the workload's default budget,
    mirroring the cache key computation in the session.
    """
    if observe:
        label = workload if isinstance(workload, str) else workload.name
        # Under the fork start method the child inherits the parent's
        # active collector; it is a dead copy here -- drop it so the
        # worker-local one can activate.
        obs.deactivate()
        collector = obs.activate(obs.Collector())
        try:
            with obs.span("trace", workload=label, mode="pool"):
                name, trace = trace_workload(
                    workload, scale, max_instructions, cache_dir)
        finally:
            obs.deactivate()
        return name, trace, collector.export()
    if isinstance(workload, str):
        import repro.workloads.suite  # noqa: F401  (registers the suite)
        from repro.workloads.base import get
        workload = get(workload)
    name = workload.name
    limit = max_instructions or workload.default_max_instructions
    tracer = ChunkedCFTracer(workload.program(scale), limit)
    trace = tracer.columns()
    if cache_dir is not None:
        try:
            TraceCache(cache_dir).store(trace, name, scale, limit,
                                        program_fingerprint(tracer.program))
        except OSError:
            pass        # an unwritable cache only skips persistence
    return name, trace
