"""The replay loop: one workload's record batches through the detector
and an analysis suite.

:func:`replay` is the one loop in the system that feeds batches to a
suite, a record-fed timing model and the canonical detector;
:meth:`SimulationSession.analyze
<repro.pipeline.session.SimulationSession.analyze>` and
:func:`analyze_trace` both run it.  :func:`analyze_trace` is the path
for a trace you already hold -- custom programs that are not
registered workloads (see ``examples/quickstart.py``).
"""

from repro.core.cls import DEFAULT_CAPACITY
from repro.core.detector import LoopDetector
from repro.obs import collector as obs

from repro.analysis.base import WorkloadContext
from repro.analysis.suite import AnalysisSuite


def replay(suite, ctx, batches):
    """One full replay of *batches* into *suite*, whose ``begin(ctx)``
    already ran; returns ``(detector, index)`` of the canonical
    detector it installs as ``ctx.detector``.

    *batches* is an iterable of :class:`~repro.trace.batch.RecordBatch`
    (a cached v3 stream, or in-memory columns).  Per batch, records fan
    out to the suite's record consumers and the timing model, then the
    detector turns them into loop events; the suite's ``finish`` sees
    the completed index.
    """
    detector = ctx.detector = LoopDetector(cls_capacity=ctx.cls_capacity)
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
    feed_events = suite.feed_events if suite.has_event_consumers else None
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
    return detector, ctx.index


def analyze_trace(analyses, trace, name="program", workload=None,
                  scale=1, cls_capacity=DEFAULT_CAPACITY, timing=None):
    """Replay *trace* once, feeding every pass in *analyses*.

    *analyses* is an :class:`AnalysisSuite` or an iterable of passes;
    *trace* is a :class:`~repro.trace.stream.CFTrace`.  *timing* is the
    default timing model for speculation passes (a spec string or
    :class:`~repro.timing.base.TimingModel` instance; record-fed models
    receive the trace's CF records).  Returns the list of each pass's
    :meth:`result`, in order (or the suite's results).
    """
    from repro.timing import make_timing

    suite = analyses if isinstance(analyses, AnalysisSuite) \
        else AnalysisSuite(analyses)
    ctx = WorkloadContext(
        name, trace.total_instructions, workload=workload, scale=scale,
        cls_capacity=cls_capacity,
        timing=make_timing(timing) if timing is not None else None)
    suite.begin(ctx)
    replay(suite, ctx, trace.batches)
    return suite.results()
