"""Workload tracing, inline and in a process pool.

:func:`trace_workload` is the single tracing entry point of
:class:`~repro.pipeline.session.SimulationSession`, so tests can count
or stub interpretation in one place.  :func:`trace_into_cache` is the
pool task behind ``jobs > 1``: it traces one workload into the trace
cache and hands back no trace, only its obs events, so no trace
crosses a process boundary.  It must stay importable at module top
level (the pool pickles it by reference) and must not depend on any
parent-process state beyond its arguments: under the ``spawn`` start
method a fresh interpreter imports this module and nothing else.
"""

from repro.cpu.tracer import ChunkedCFTracer
from repro.obs import collector as obs
from repro.pipeline.cache import TraceCache, program_fingerprint


def trace_workload(workload, scale=1, max_instructions=None,
                   cache_dir=None):
    """Trace one workload (a registered name or a Workload object).

    Returns ``(name, CFTrace)``; the trace is stored in the cache
    under *cache_dir* first, when one is given.
    ``max_instructions=None`` uses the workload's default budget,
    mirroring the cache key computation in the session.
    """
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


def trace_into_cache(name, scale, max_instructions, cache_dir,
                     observe=False):
    """Pool task: trace workload *name* into the cache under
    *cache_dir*.  Returns ``(name, events)``: *events* is ``None``, or
    with ``observe=True`` (the parent session has an active obs
    collector) the export of the worker-local collector the tracing
    ran under (:func:`~repro.obs.collector.in_worker`)."""
    def trace():
        with obs.span("trace", workload=name, mode="pool"):
            trace_workload(name, scale, max_instructions, cache_dir)

    return name, obs.in_worker(observe, trace)[1]
