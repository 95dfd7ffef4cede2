"""Read a session's traces, loop indexes and results the way passes do.

The session's only surface is ``analyze``: a workload's trace and index
live in its context and die with it.  :func:`load` runs one ``analyze``
with a :class:`Capture` pass that keeps them, so a test can compare
them after the run.  :func:`run_experiment` runs one experiment and
:func:`row_for` picks a row of its result.  The ``workload_*`` helpers
trace one workload directly, without a session.
"""

from repro.analysis import Analysis, AnalysisSuite
from repro.core.detector import LoopDetector
from repro.cpu import trace_control_flow, trace_full
from repro.experiments.runner import build_suite


class Capture(Analysis):
    """Keeps every workload's ``(ctx.trace, ctx.index)``, by name."""

    def __init__(self):
        self.loaded = {}

    def finish(self, ctx):
        self.loaded[ctx.name] = ctx.trace, ctx.index

    def result(self):
        return self.loaded


def load(session):
    """``{name: (trace, index)}`` of every workload of *session*, in
    configured order, from one ``session.analyze`` (one replay per
    workload)."""
    (loaded,) = session.analyze(AnalysisSuite([Capture()]))
    return loaded


def run_experiment(name, session, **kwargs):
    """The result(s) of experiment *name* over *session*; *kwargs* are
    its constructor overrides (see
    :func:`~repro.experiments.runner.build_suite`)."""
    suite, _ = build_suite([name], {name: kwargs})
    return session.analyze(suite)[0]


def row_for(result, key):
    """The first row of an experiment *result* whose first column is
    *key*."""
    for row in result.rows:
        if row[0] == key:
            return row
    raise KeyError("no row %r in %s" % (key, result.name))


def workload_trace(workload, scale=1, max_instructions=None):
    """*workload*'s control-flow trace at *scale* (its own budget
    unless *max_instructions* is given)."""
    return trace_control_flow(
        workload.program(scale),
        max_instructions or workload.default_max_instructions)


def workload_full_trace(workload, scale=1, max_instructions=None):
    """*workload*'s full per-instruction trace at *scale*."""
    return trace_full(workload.program(scale),
                      max_instructions or workload.default_max_instructions)


def workload_index(workload, scale=1, cls_capacity=16,
                   max_instructions=None):
    """The loop index of :func:`workload_trace`."""
    return LoopDetector(cls_capacity=cls_capacity).run(
        workload_trace(workload, scale, max_instructions))
