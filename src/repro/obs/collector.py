"""The run collector: hierarchical spans, counters, gauges, points.

One :class:`Collector` instance records everything one run does.  A
module-level *active* collector (:func:`activate` / :func:`deactivate`
/ :func:`active`) is how instrumented code reaches it: the module
functions :func:`span`, :func:`add`, :func:`gauge`, and :func:`point`
look the active collector up and become near-free no-ops when none is
installed -- the default.  That cheapness is a hard requirement: the
whole pipeline is instrumented through these calls, and an
uninstrumented run (no ``--metrics``/``--timeline``/``--profile-run``)
must stay byte-identical in output and within noise in wall time.

Event kinds:

* **spans** -- hierarchical timed regions (``with obs.span("replay",
  workload="swim"):``).  Timing uses :func:`time.perf_counter`
  (monotonic); nesting comes from a per-collector stack, so spans form
  a forest whose roots are the run's top-level stages.  Finished spans
  are recorded in *completion* order (inner before outer).
* **counters** -- monotonically accumulated numbers
  (``obs.add("replay.records", 4096)``); floats are fine (the analysis
  suite accumulates per-pass feed seconds here).
* **gauges** -- last-write-wins scalars
  (``collector.gauge("kernels.backend", "stdlib")``).
* **points** -- timestamped samples for trajectories
  (``obs.point("search.score", 0.41, candidate=name)``).

Process-pool workers cannot share the parent's collector; they run
their own (:func:`Collector.export` is picklable) and the parent
merges the export with :meth:`Collector.absorb` -- worker spans become
children of the parent's current span and worker counters accumulate
into the parent's.  Merging in a deterministic order (the session
absorbs each pool task's export in configured workload order) keeps
manifests deterministic modulo timing values.

Collectors are single-threaded by design: every producer in this
codebase is either the main thread or a worker *process* with a
collector of its own.
"""

import time

__all__ = [
    "Collector", "Span", "activate", "active", "add", "deactivate",
    "gauge", "point", "span",
]

_ACTIVE = None


def active():
    """The active :class:`Collector`, or ``None`` (the default)."""
    return _ACTIVE


def activate(collector):
    """Install *collector* as the process-wide active collector.

    Returns it.  Raises :class:`RuntimeError` if another collector is
    already active -- nested runs must not silently steal each other's
    events.
    """
    global _ACTIVE
    if _ACTIVE is not None and _ACTIVE is not collector:
        raise RuntimeError("another collector is already active")
    _ACTIVE = collector
    return collector


def deactivate():
    """Remove the active collector (idempotent); returns it or ``None``."""
    global _ACTIVE
    collector, _ACTIVE = _ACTIVE, None
    return collector


class _NullSpan:
    """The reusable no-op context manager :func:`span` returns when no
    collector is active."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def span(name, **attrs):
    """A timed span context manager, or a shared no-op when disabled."""
    collector = _ACTIVE
    if collector is None:
        return _NULL_SPAN
    return collector.span(name, **attrs)


def add(name, value=1):
    """Accumulate *value* into counter *name* (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.add(name, value)


def point(name, value, **attrs):
    """Record a timestamped sample (no-op when disabled)."""
    collector = _ACTIVE
    if collector is not None:
        collector.point(name, value, **attrs)


class Span:
    """One live span; finished spans live on as plain dicts."""

    __slots__ = ("_collector", "id", "parent", "depth", "name", "attrs",
                 "start", "_t0")

    def __init__(self, collector, span_id, parent, depth, name, attrs):
        self._collector = collector
        self.id = span_id
        self.parent = parent
        self.depth = depth
        self.name = name
        self.attrs = attrs

    def __enter__(self):
        self._collector._stack.append(self)
        self._t0 = self._collector.clock()
        self.start = self._t0 - self._collector.epoch
        return self

    def __exit__(self, exc_type, exc, tb):
        collector = self._collector
        seconds = collector.clock() - self._t0
        stack = collector._stack
        if stack and stack[-1] is self:
            stack.pop()
        collector.spans.append({
            "id": self.id, "parent": self.parent, "depth": self.depth,
            "name": self.name, "start": round(self.start, 6),
            "seconds": round(seconds, 6), "attrs": self.attrs,
        })
        return False


class Collector:
    """Accumulates one run's spans, counters, gauges, and points.

    *clock* is injectable for deterministic tests; it must be
    monotonic.  ``epoch`` (the clock at construction) anchors every
    span start and point timestamp, so all times are relative seconds
    into the run.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.epoch = clock()
        self.spans = []      #: finished span dicts, completion order
        self.counters = {}
        self.gauges = {}
        self.points = []
        self._stack = []
        self._next_id = 1

    # -- recording -----------------------------------------------------------

    def span(self, name, **attrs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1].id if self._stack else None
        return Span(self, span_id, parent, len(self._stack), name, attrs)

    def add(self, name, value=1):
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name, value):
        self.gauges[name] = value

    def point(self, name, value, **attrs):
        self.points.append({
            "name": name, "value": value,
            "t": round(self.clock() - self.epoch, 6), "attrs": attrs,
        })

    def wall_seconds(self):
        """Seconds since this collector was constructed."""
        return self.clock() - self.epoch

    # -- cross-process merge -------------------------------------------------

    def export(self):
        """This collector's events as one picklable/JSON-able dict --
        what a pool worker ships back over the result pipe."""
        return {"spans": list(self.spans),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "points": list(self.points)}

    def absorb(self, export, **attrs):
        """Merge a worker's :meth:`export` into this collector.

        Imported spans are re-identified (ids are collector-local),
        attached under the current span (top-level imported spans get
        the current stack top as parent), and tagged with *attrs*
        (existing span attrs win on conflict).  Counters accumulate;
        gauges fill in only where this collector has no value; points
        append with *attrs* merged.  Imported timestamps stay relative
        to the *worker's* epoch -- durations are meaningful, offsets
        are per-process.
        """
        if not export:
            return
        base_parent = self._stack[-1].id if self._stack else None
        base_depth = len(self._stack)
        imported = list(export.get("spans", ()))
        # Assign every new id up front: spans arrive in completion
        # order (children before parents), so parents resolve only
        # against a complete map.
        id_map = {}
        for span_dict in imported:
            id_map[span_dict["id"]] = self._next_id
            self._next_id += 1
        for span_dict in imported:
            merged = dict(span_dict)
            merged["id"] = id_map[span_dict["id"]]
            parent = span_dict.get("parent")
            merged["parent"] = (id_map.get(parent, base_parent)
                                if parent is not None else base_parent)
            merged["depth"] = span_dict.get("depth", 0) + base_depth
            if attrs:
                merged["attrs"] = dict(attrs, **span_dict.get("attrs", {}))
            self.spans.append(merged)
        for name, value in export.get("counters", {}).items():
            self.add(name, value)
        for name, value in export.get("gauges", {}).items():
            self.gauges.setdefault(name, value)
        for point_dict in export.get("points", ()):
            merged = dict(point_dict)
            if attrs:
                merged["attrs"] = dict(attrs, **point_dict.get("attrs", {}))
            self.points.append(merged)
