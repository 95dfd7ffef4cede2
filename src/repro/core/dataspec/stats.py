"""The data-speculation study (paper section 4, Figure 8).

Pipeline: replay a full trace through the loop detector while tracking,
for every in-flight loop iteration, its control-flow path and live-in
registers / memory locations.  Then, per loop:

* find the most frequent path;
* walk the loop's iterations chronologically, predicting each live-in
  as ``last value + stride of the last two iterations`` (unbounded
  LIT/LET capacity, as the paper assumes for these figures);
* score predictions only on iterations following the most frequent path
  (the paper's methodology), while updating history on every iteration.
"""

from repro.core.cls import CurrentLoopStack
from repro.core.detector import LoopDetector
from repro.core.dataspec.livein import IterationObservation, \
    IterationTracker
from repro.core.dataspec.paths import (
    HASH_MULTIPLIER,
    HASH_SEED,
    _HASH_MASK,
    PathProfile,
)
from repro.core.events import ExecutionEnd, IterationStart
from repro.core.predictors import LastPlusStride


class DataSpecStats:
    """Figure 8 percentages plus the raw counters behind them."""

    FIGURE8_HEADERS = ("program", "same path", "lr pred", "lm pred",
                       "all lr", "all lm", "all data")

    def __init__(self, name="workload"):
        self.name = name
        self.total_iterations = 0
        self.mfp_iterations = 0
        self.evaluated_iterations = 0
        self.lr_total = 0
        self.lr_correct = 0
        self.lm_total = 0
        self.lm_correct = 0
        self.lm_addr_total = 0
        self.lm_addr_correct = 0
        self.all_lr_count = 0
        self.all_lm_count = 0
        self.all_data_count = 0

    # -- ratios ------------------------------------------------------------

    @staticmethod
    def _ratio(num, den):
        return num / den if den else 0.0

    @property
    def same_path(self):
        return self._ratio(self.mfp_iterations, self.total_iterations)

    @property
    def lr_pred(self):
        return self._ratio(self.lr_correct, self.lr_total)

    @property
    def lm_pred(self):
        return self._ratio(self.lm_correct, self.lm_total)

    @property
    def lm_addr_pred(self):
        """Extension metric: live-in memory *address* predictability
        (the paper speculates addresses the same way; not in Figure 8)."""
        return self._ratio(self.lm_addr_correct, self.lm_addr_total)

    @property
    def all_lr(self):
        return self._ratio(self.all_lr_count, self.evaluated_iterations)

    @property
    def all_lm(self):
        return self._ratio(self.all_lm_count, self.evaluated_iterations)

    @property
    def all_data(self):
        return self._ratio(self.all_data_count, self.evaluated_iterations)

    #: The raw counters behind every ratio, in declaration order.
    COUNTER_FIELDS = ("total_iterations", "mfp_iterations",
                      "evaluated_iterations", "lr_total", "lr_correct",
                      "lm_total", "lm_correct", "lm_addr_total",
                      "lm_addr_correct", "all_lr_count", "all_lm_count",
                      "all_data_count")

    def merge(self, other):
        """Accumulate another workload's raw counters (suite averages)."""
        for field in self.COUNTER_FIELDS:
            setattr(self, field, getattr(self, field)
                    + getattr(other, field))
        return self

    # -- persistence -------------------------------------------------------

    def state(self):
        """All raw counters plus the name, JSON-serializable -- the
        exact inverse of :meth:`from_state` (every ratio above derives
        from these)."""
        state = {"name": self.name}
        for field in self.COUNTER_FIELDS:
            state[field] = getattr(self, field)
        return state

    @classmethod
    def from_state(cls, state):
        """Rebuild from :meth:`state` output.

        Raises ``KeyError``/``TypeError`` on malformed input and
        ``ValueError`` on counters no analysis can produce (a negative
        count, or any ratio above 100%); derived caches treat any of
        them as a miss.
        """
        stats = cls(state["name"])
        for field in cls.COUNTER_FIELDS:
            value = state[field]
            if not isinstance(value, int):
                raise TypeError("non-integer counter %r" % field)
            if value < 0:
                raise ValueError("negative counter %r" % field)
            setattr(stats, field, value)
        evaluated = stats.evaluated_iterations
        if not (stats.mfp_iterations <= stats.total_iterations
                and stats.lr_correct <= stats.lr_total
                and stats.lm_correct <= stats.lm_total
                and stats.lm_addr_correct <= stats.lm_addr_total
                and max(stats.all_lr_count, stats.all_lm_count,
                        stats.all_data_count) <= evaluated):
            raise ValueError("data-speculation counters out of range")
        return stats

    def as_row(self):
        pct = lambda v: round(100.0 * v, 2)  # noqa: E731
        return (self.name, pct(self.same_path), pct(self.lr_pred),
                pct(self.lm_pred), pct(self.all_lr), pct(self.all_lm),
                pct(self.all_data))

    def __repr__(self):
        return ("DataSpecStats(%s: same_path=%.1f%%, lr=%.1f%%, "
                "lm=%.1f%%, all_data=%.1f%%)"
                % (self.name, 100 * self.same_path, 100 * self.lr_pred,
                   100 * self.lm_pred, 100 * self.all_data))


class _BatchTracker:
    """One in-flight iteration's state for the columnar collect loop.

    Unlike :class:`~repro.core.dataspec.livein.IterationTracker` it
    keeps no written-register/written-address sets: the batched
    pass tracks the *global* last-write sequence per register and
    address instead, and an operand is live-in exactly when its last
    write is not after the iteration's start (``lw <= start``).  The
    path signature is folded inline.
    """

    __slots__ = ("loop", "exec_id", "iteration", "start", "sigval",
                 "siglen", "live_regs", "live_mem")

    def __init__(self, loop, exec_id, iteration, start):
        self.loop = loop
        self.exec_id = exec_id
        self.iteration = iteration
        self.start = start
        self.sigval = HASH_SEED         # PathSignature's parameters
        self.siglen = 0
        self.live_regs = {}
        self.live_mem = {}


class DataSpeculationAnalyzer:
    """Runs the section-4 study over a full trace.

    Two equivalent front ends: :meth:`analyze` consumes a materialized
    :class:`~repro.trace.stream.FullTrace` (the reference
    implementation), :meth:`analyze_batches` streams
    :class:`~repro.trace.batch.FullBatch` columns from a
    :class:`~repro.cpu.tracer.ChunkedFullTracer` without ever building
    a record object -- the pipeline's path.  Equivalence is pinned by
    tests.
    """

    def __init__(self, cls_capacity=16):
        self.cls_capacity = cls_capacity

    def analyze(self, full_trace, name="workload"):
        observations_by_loop, profile = self._collect(full_trace)
        return self._evaluate(observations_by_loop, profile, name)

    def analyze_batches(self, batches, name="workload"):
        """Run the study over an iterable of
        :class:`~repro.trace.batch.FullBatch` (must cover every
        executed instruction contiguously from sequence 0)."""
        observations_by_loop, profile = self._collect_batches(batches)
        return self._evaluate(observations_by_loop, profile, name)

    # -- pass 1: per-iteration observation ----------------------------------

    def _collect(self, full_trace):
        detector = LoopDetector(cls_capacity=self.cls_capacity)
        trackers = {}                 # exec_id -> IterationTracker
        observations = {}             # loop -> [IterationObservation]
        profile = PathProfile()

        def finalize(tracker):
            obs = tracker.finalize()
            profile.record(obs.loop, obs.path)
            observations.setdefault(obs.loop, []).append(obs)

        for record in full_trace.records:
            # The instruction belongs to the iterations in flight *before*
            # any loop event it triggers (a closing branch is part of the
            # iteration it ends).
            if trackers:
                for tracker in trackers.values():
                    tracker.observe(record)
            if record.kind:
                events = detector.feed(record)
                for event in events:
                    etype = type(event)
                    if etype is IterationStart:
                        old = trackers.get(event.exec_id)
                        if old is not None:
                            finalize(old)
                        trackers[event.exec_id] = IterationTracker(
                            event.loop, event.exec_id, event.iteration)
                    elif etype is ExecutionEnd:
                        old = trackers.pop(event.exec_id, None)
                        if old is not None:
                            finalize(old)
        for event in detector.finish(full_trace.total_instructions):
            if type(event) is ExecutionEnd:
                old = trackers.pop(event.exec_id, None)
                if old is not None:
                    finalize(old)
        return observations, profile

    def _collect_batches(self, batches):
        """Columnar twin of :meth:`_collect`.

        Per instruction the loop touches only the populated effect
        slots; register/address write *sets* per iteration are replaced
        by two global last-write maps, so stores and register writes
        cost one dict assignment regardless of how many iterations are
        in flight.  Event handling, finalization order and the
        resulting observations are identical to the per-record pass.
        """
        cls = CurrentLoopStack(capacity=self.cls_capacity)
        process = cls.process
        trackers = {}                 # exec_id -> _BatchTracker
        live = ()                     # tuple view of trackers.values()
        observations = {}             # loop -> [IterationObservation]
        profile = PathProfile()
        record_path = profile.record
        last_reg_write = {}           # reg -> seq of latest write
        last_mem_write = {}           # addr -> seq of latest store
        rw_get = last_reg_write.get
        mw_get = last_mem_write.get
        hash_mask = _HASH_MASK
        hash_mult = HASH_MULTIPLIER
        seq = 0

        def finalize(t):
            digest = (t.sigval, t.siglen)
            record_path(t.loop, digest)
            obs = IterationObservation(t.loop, t.exec_id, t.iteration,
                                       digest, t.live_regs, t.live_mem)
            observations.setdefault(t.loop, []).append(obs)

        for batch in batches:
            for pc, kind, taken, target, r1, v1, r2, v2, w, ma, mv, wa \
                    in zip(batch.pcs, batch.kinds, batch.takens,
                           batch.targets, batch.rr1, batch.rv1,
                           batch.rr2, batch.rv2, batch.wr, batch.mra,
                           batch.mrv, batch.mwa):
                # The instruction belongs to the iterations in flight
                # *before* any loop event it triggers (a closing branch
                # is part of the iteration it ends).
                if live:
                    if r1 >= 0:
                        lw = rw_get(r1, -1)
                        for t in live:
                            if lw <= t.start and r1 not in t.live_regs:
                                t.live_regs[r1] = v1
                    if r2 >= 0:
                        lw = rw_get(r2, -1)
                        for t in live:
                            if lw <= t.start and r2 not in t.live_regs:
                                t.live_regs[r2] = v2
                    if ma is not None:
                        lw = mw_get(ma, -1)
                        for t in live:
                            if lw <= t.start and pc not in t.live_mem:
                                t.live_mem[pc] = (ma, mv)
                if w >= 0:
                    last_reg_write[w] = seq
                if wa is not None:
                    last_mem_write[wa] = seq
                if kind:
                    if live:
                        token = pc * 2 + taken
                        for t in live:
                            t.sigval = ((t.sigval * hash_mult) ^ token) \
                                & hash_mask
                            t.siglen += 1
                    events = process(seq, pc, kind, taken,
                                     None if target < 0 else target)
                    if events:
                        for event in events:
                            etype = type(event)
                            if etype is IterationStart:
                                old = trackers.get(event.exec_id)
                                if old is not None:
                                    finalize(old)
                                trackers[event.exec_id] = _BatchTracker(
                                    event.loop, event.exec_id,
                                    event.iteration, seq)
                            elif etype is ExecutionEnd:
                                old = trackers.pop(event.exec_id, None)
                                if old is not None:
                                    finalize(old)
                        live = tuple(trackers.values())
                seq += 1
        for event in cls.flush(seq):
            if type(event) is ExecutionEnd:
                old = trackers.pop(event.exec_id, None)
                if old is not None:
                    finalize(old)
        return observations, profile

    # -- pass 2: predictability scoring ---------------------------------------

    def _evaluate(self, observations_by_loop, profile, name):
        stats = DataSpecStats(name)
        stats.total_iterations = profile.total_iterations()
        stats.mfp_iterations = profile.total_most_frequent()

        for loop, observations in observations_by_loop.items():
            mfp = profile.most_frequent(loop)
            reg_hist = {}            # reg -> LastPlusStride
            mem_val_hist = {}        # load pc -> LastPlusStride
            mem_addr_hist = {}       # load pc -> LastPlusStride
            for obs in observations:
                if obs.path == mfp:
                    self._score(stats, obs, reg_hist, mem_val_hist,
                                mem_addr_hist)
                for reg, value in obs.live_regs.items():
                    hist = reg_hist.get(reg)
                    if hist is None:
                        hist = reg_hist[reg] = LastPlusStride()
                    hist.update(value)
                for pc, (addr, value) in obs.live_mem.items():
                    vhist = mem_val_hist.get(pc)
                    if vhist is None:
                        vhist = mem_val_hist[pc] = LastPlusStride()
                        mem_addr_hist[pc] = LastPlusStride()
                    vhist.update(value)
                    mem_addr_hist[pc].update(addr)
        return stats

    @staticmethod
    def _score(stats, obs, reg_hist, mem_val_hist, mem_addr_hist):
        stats.evaluated_iterations += 1
        regs_all = True
        for reg, value in obs.live_regs.items():
            stats.lr_total += 1
            hist = reg_hist.get(reg)
            if hist is not None and hist.ready \
                    and hist.predict() == value:
                stats.lr_correct += 1
            else:
                regs_all = False
        mem_all = True
        for pc, (addr, value) in obs.live_mem.items():
            stats.lm_total += 1
            stats.lm_addr_total += 1
            vhist = mem_val_hist.get(pc)
            if vhist is not None and vhist.ready \
                    and vhist.predict() == value:
                stats.lm_correct += 1
            else:
                mem_all = False
            ahist = mem_addr_hist.get(pc)
            if ahist is not None and ahist.ready \
                    and ahist.predict() == addr:
                stats.lm_addr_correct += 1
        if regs_all:
            stats.all_lr_count += 1
        if mem_all:
            stats.all_lm_count += 1
        if regs_all and mem_all:
            stats.all_data_count += 1
