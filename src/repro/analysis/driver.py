"""The standalone driver: an analysis suite over a trace you hold.

:func:`analyze_trace` is the path for custom programs that are not
registered workloads (see ``examples/quickstart.py``);
:meth:`SimulationSession.analyze
<repro.pipeline.session.SimulationSession.analyze>` is the path for
workloads.
"""

from repro.core.cls import DEFAULT_CAPACITY
from repro.core.detector import LoopDetector
from repro.obs import collector as obs

from repro.analysis.base import WorkloadContext
from repro.analysis.suite import AnalysisSuite


def analyze_trace(analyses, trace, name="program", workload=None,
                  scale=1, cls_capacity=DEFAULT_CAPACITY, timing=None):
    """Finish every pass in *analyses* over *trace*.

    *analyses* is an :class:`AnalysisSuite` or an iterable of passes;
    *trace* is a :class:`~repro.trace.stream.CFTrace`, which the
    context's lazy ``trace``/``index`` read.  *timing* is
    the default timing model for speculation passes (a spec string or
    :class:`~repro.timing.base.TimingModel` instance; a record-fed model
    is fed the trace's CF records).  Returns the list of each pass's
    :meth:`result`, in order (or the suite's results).
    """
    suite = analyses if isinstance(analyses, AnalysisSuite) \
        else AnalysisSuite(analyses)

    ctx = WorkloadContext(
        name, trace.total_instructions, workload=workload, scale=scale,
        cls_capacity=cls_capacity, timing=timing,
        load_trace=lambda ctx: trace,
        load_index=lambda ctx: LoopDetector(
            cls_capacity=cls_capacity).run(ctx.trace))
    with obs.span("finish", workload=name):
        suite.finish(ctx)
    return suite.results()
