"""The streaming analysis protocol.

The paper's premise is that loop behaviour can be extracted
*incrementally from the dynamic instruction stream*; this package
extends that idea to the whole experiment layer.  An :class:`Analysis`
is one measurement pass over a workload's single event-stream replay:
the session (or the standalone :func:`~repro.analysis.driver.
analyze_trace` driver) replays each workload's control-flow records
through one canonical :class:`~repro.core.detector.LoopDetector` and
fans the resulting loop events out to every registered pass, so *all*
requested experiments ride one replay per workload.

Lifecycle, per workload::

    begin(ctx)                 # reset per-workload state
    feed_record(record)        # every CF record (only if wants_records)
    feed(event)                # every loop event, incl. end-of-trace flush
    finish(ctx)                # ctx.index now holds the completed LoopIndex
    ...                        # next workload: begin(ctx) again
    result()                   # once, after every workload finished

``feed`` must be incremental: it may keep per-workload accumulators but
must not assume the full event list exists.  Passes that need the
completed loop index as an oracle (the speculation engine reads future
iteration boundaries) do their work in ``finish`` against ``ctx.index``
-- the single index shared by every pass, not a per-experiment copy.

A workload whose passes neither want records (``wants_records``, read
after ``begin``) nor override ``feed`` is not replayed at all: the
session calls ``finish`` right after ``begin``, and ``ctx.index``
resolves lazily on first read.  Passes whose results are already in
the derived store therefore make a warm run a lookup.

``abort(ctx)`` discards partial per-workload state: the session calls
it when a cached trace proves corrupt mid-stream, then re-traces and
calls ``begin`` again for the same workload.  Suite-level accumulators
(sums across workloads) must therefore only be updated in ``finish``,
never in ``feed``.
"""


class WorkloadContext:
    """Everything a pass may need to know about the workload being
    replayed.

    ``total_instructions`` is known from the start (the trace header
    carries it), so passes can size prefixes up front.  During a
    replay, ``index`` is ``None`` until the replay completes; it is set
    before ``finish``.  ``detector`` is the live canonical detector,
    installed once ``begin`` has run -- :meth:`execution` resolves an
    event's ``exec_id`` to its (mutable) execution record, which is
    complete by the time that execution's end event is fed.

    When no pass needs the record or event stream the session skips
    the replay and calls ``finish`` straight after ``begin``; ``index``
    and ``detector`` are then *lazy* (:meth:`defer`): the first read of
    either walks the trace, so a pass that reads them still gets the
    canonical index, and one that does not costs no walk.

    ``shared`` is a per-workload scratch dict for values several passes
    want to compute exactly once (e.g. the full-trace data-speculation
    statistics shared by figure8 and the extensions study).

    ``timing`` is the session's default :class:`~repro.timing.base.
    TimingModel` instance for this workload (``None`` means the ideal
    model): speculation passes that are not given an explicit model
    simulate under it, and record-fed models receive the replay's CF
    records through it.  One instance per workload, shared by every
    pass -- models are read-only during simulations.

    ``derived`` is the workload's persistent
    :class:`~repro.pipeline.derived.DerivedStore` (or ``None`` in
    cacheless sessions): deterministic expensive results keyed by
    their parameters, surviving across sessions.  Passes treat a
    missing store as a permanent cache miss.
    """

    __slots__ = ("name", "workload", "scale", "cls_capacity",
                 "total_instructions", "shared", "timing", "derived",
                 "_detector", "_index", "_resolve")

    def __init__(self, name, total_instructions, workload=None, scale=1,
                 cls_capacity=16, detector=None, timing=None,
                 derived=None):
        self.name = name
        self.workload = workload
        self.scale = scale
        self.cls_capacity = cls_capacity
        self.total_instructions = total_instructions
        self._detector = detector
        self._index = None
        self._resolve = None
        self.shared = {}
        self.timing = timing
        self.derived = derived

    def defer(self, resolve):
        """Make ``index`` and ``detector`` lazy: the first read of
        either calls ``resolve()`` for the ``(detector, index)`` pair.
        The session does this when it skips a workload's replay."""
        self._detector = self._index = None
        self._resolve = resolve

    def _resolved(self):
        self._detector, self._index = self._resolve()
        self._resolve = None

    @property
    def detector(self):
        if self._resolve is not None:
            self._resolved()
        return self._detector

    @detector.setter
    def detector(self, detector):
        self._detector = detector

    @property
    def index(self):
        if self._resolve is not None:
            self._resolved()
        return self._index

    @index.setter
    def index(self, index):
        self._index = index

    def execution(self, exec_id):
        """The live execution record behind *exec_id* (complete once its
        :class:`~repro.core.events.ExecutionEnd` has been fed)."""
        return self.detector.executions[exec_id]

    def __repr__(self):
        return ("WorkloadContext(%r, total=%d, scale=%d)"
                % (self.name, self.total_instructions, self.scale))


class Analysis:
    """Base class for streaming analysis passes.

    Subclasses override the lifecycle hooks they need; every hook has a
    no-op default except :meth:`result`.  Set :attr:`wants_records` to
    receive raw control-flow records via :meth:`feed_record` in addition
    to loop events (branch predictors and CLS-capacity sweeps need the
    record stream; most passes only need events).
    """

    #: True to receive every CF record through :meth:`feed_record`.
    #: Read per workload *after* :meth:`begin`, so a pass may clear it
    #: there when it will not need this workload's records (e.g. its
    #: result is already in ``ctx.derived``).
    wants_records = False

    def begin(self, ctx):
        """Start a workload; must fully reset per-workload state."""

    def feed_record(self, record):
        """One control-flow record (only called when ``wants_records``)."""

    def feed_batch(self, batch):
        """One :class:`~repro.trace.batch.RecordBatch` of control-flow
        records (only called when ``wants_records``).

        The replay delivers records in batches; the default decodes
        them and calls :meth:`feed_record` one at a time, so passes
        written against the per-record protocol keep working unchanged.
        Record-hungry passes override this with a columnar loop (see
        ``docs/ANALYSIS.md``); overriders must preserve per-record
        semantics -- a batch is a pure run of consecutive records, and
        batch boundaries carry no meaning.
        """
        feed_record = self.feed_record
        for record in batch.iter_records():
            feed_record(record)

    def feed(self, event):
        """One loop event from the canonical detector."""

    def abort(self, ctx):
        """Discard partial state for the current workload; ``begin``
        will be called again before any further feeding."""

    def finish(self, ctx):
        """Workload replay complete (or skipped); ``ctx.index`` is
        available -- read it only when needed, since in a skipped
        replay the first read walks the trace."""

    def result(self):
        """The pass's final product, after all workloads finished."""
        raise NotImplementedError
