"""Read a session's traces and loop indexes the way passes do.

The session's only surface is ``analyze``: a workload's trace and index
live in its context and die with it.  :func:`load` runs one ``analyze``
with a :class:`Capture` pass that keeps them, so a test can compare
them after the run.
"""

from repro.analysis import Analysis, AnalysisSuite


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
