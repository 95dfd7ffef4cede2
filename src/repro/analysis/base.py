"""The analysis protocol.

The paper's CLS finds loops incrementally from the dynamic instruction
stream; the experiments built on it read the *completed* loop index
(section 3's speculation reads future iteration boundaries from it).
So an :class:`Analysis` is one measurement over a finished workload:
the session (or the standalone :func:`~repro.analysis.driver.
analyze_trace` driver) calls every registered pass's ``finish(ctx)``
once per workload, and each pass pulls what it needs from its
:class:`WorkloadContext`.

Lifecycle::

    finish(ctx)                # once per workload, in workload order
    ...
    result()                   # once, after every workload finished

``ctx.trace`` and ``ctx.index`` are lazy: the first read of either
loads the workload's trace once and builds its canonical index from
that same copy, so a pass that reads neither -- every stock pass whose
result sits in the derived store -- makes its workload cost no walk at
all.  Read them in ``finish``, and only on the path that needs them.
Both live as long as the context: one workload's, never the session's.
"""

from repro.obs import collector as obs
from repro.pipeline.derived import derived_key


def memo_key(cls_capacity, parts):
    """The derived-store key of the per-workload result named *parts*
    under a CLS of *cls_capacity* entries (every analysis result is):
    the parts, then ``/c<cls_capacity>``.  It is also the suffix a
    sweep cell's key joins under its workload's trace key, so sweep
    cells, search candidates and direct runs share one stored entry."""
    return derived_key(*parts) + "/c%d" % cls_capacity


#: Marks, in ``ctx.shared``, a derived entry a lookup found missing.
_MISSING = object()


class WorkloadContext:
    """Everything a pass may need to know about one workload.

    ``total_instructions`` is known from the start (the trace header
    carries it), so reading it costs no walk.

    ``trace`` (the workload's :class:`~repro.trace.stream.CFTrace`)
    and ``index`` (the canonical detector's completed
    :class:`~repro.core.detector.LoopIndex` over it) come from
    *resolve*: a callable returning the ``(trace, index)`` pair,
    called on the first read of either (and again on the next read if
    it raised).  Without a resolver the context has no record stream,
    and reading either raises :class:`ValueError` (``index`` may still
    be assigned directly).

    ``shared`` is a per-workload scratch dict for values several passes
    want to compute exactly once (e.g. the full-trace data-speculation
    statistics shared by figure8 and the extensions study).

    ``timing`` is the session's default timing model for this workload:
    a :mod:`repro.timing` spec string, a
    :class:`~repro.timing.base.TimingModel` instance, or ``None`` (the
    ideal model).  Passes resolve it through
    :func:`~repro.analysis.passes.effective_timing`, which feeds a
    record-fed model ``ctx.trace`` once.

    ``derived`` is the workload's persistent
    :class:`~repro.pipeline.derived.DerivedStore` (or ``None`` in
    cacheless sessions): deterministic expensive results keyed by
    their parameters, surviving across sessions (see :meth:`memo`).
    """

    __slots__ = ("name", "workload", "scale", "cls_capacity",
                 "total_instructions", "shared", "timing", "derived",
                 "_resolve", "_trace", "_index")

    def __init__(self, name, total_instructions, workload=None, scale=1,
                 cls_capacity=16, timing=None, derived=None,
                 resolve=None):
        self.name = name
        self.workload = workload
        self.scale = scale
        self.cls_capacity = cls_capacity
        self.total_instructions = total_instructions
        self.shared = {}
        self.timing = timing
        self.derived = derived
        self._resolve = resolve
        self._trace = self._index = None

    def _resolved(self):
        if self._resolve is None:
            raise ValueError("workload %s has no record stream to read"
                             % self.name)
        self._trace, self._index = self._resolve()
        self._resolve = None

    @property
    def trace(self):
        if self._trace is None:
            self._resolved()
        return self._trace

    @property
    def index(self):
        if self._index is None:
            self._resolved()
        return self._index

    def memo(self, parts, from_state, compute=None, to_state=None):
        """This workload's result named *parts*, at most once per
        workload.

        Memoized in ``shared`` under ``tuple(parts)``, so every pass
        asking shares one value (treat it as read-only); the first ask
        restores it from ``derived`` under :func:`memo_key`
        (``from_state``).  An entry ``from_state`` rejects (raising
        ``KeyError``/``TypeError``/``ValueError``) is corrupt and is
        recomputed like a missing one.  Each store lookup counts once
        as ``derived.hits``, ``derived.misses`` or ``derived.corrupt``.
        On a miss, ``compute()`` makes the value and
        ``to_state(value)`` persists it.  Without *compute* the call is
        a lookup that returns ``None`` on a miss, and a later call with
        *compute* does not read the store again.
        """
        key = tuple(parts)
        value = self.shared.get(key)
        if value is None:
            value = _MISSING
            if self.derived is not None:
                state = self.derived.get(memo_key(self.cls_capacity, key))
                if state is None:
                    obs.add("derived.misses")
                else:
                    try:
                        value = from_state(state)
                    except (KeyError, TypeError, ValueError):
                        obs.add("derived.corrupt")
                    else:
                        obs.add("derived.hits")
            self.shared[key] = value
        if value is _MISSING and compute is not None:
            value = self.shared[key] = compute()
            if self.derived is not None:
                self.derived.put(memo_key(self.cls_capacity, key),
                                 to_state(value))
        return None if value is _MISSING else value


class Analysis:
    """Base class for analysis passes.  A pass defines ``finish(ctx)``
    -- one workload, in workload order: it pulls what it needs from
    *ctx* (``ctx.index``, ``ctx.trace``, ``ctx.memo``) -- and
    :meth:`result`."""

    def result(self):
        """The pass's final product, after all workloads finished."""
        raise NotImplementedError
