"""The data-speculation study (paper section 4, Figure 8).

One pass over a full trace: the loop detector walks its control rows
while every in-flight loop iteration collects its control-flow path and
its live-in registers and memory locations.  A live-in register is one
read before it is written within the iteration; a live-in memory
location is one loaded before it is stored, keyed by the static load pc
(what a LIT would use to associate history across iterations) with both
its address and value kept so each can be stride-predicted.

When an iteration ends it is scored at once against its loop's
histories, predicting each live-in as ``last value + stride of the last
two iterations`` (:class:`~repro.core.predictors.LastPlusStride`,
unbounded LIT/LET capacity as the paper assumes for these figures), and
the histories are updated from it.  The scores accumulate per
``(loop, path)``; at the end each loop contributes only the bucket of
its most frequent path (the paper's methodology), while history was
updated on every iteration.
"""

from array import array
from itertools import compress, groupby
from operator import attrgetter

from repro.core.detector import LoopDetector
from repro.core.dataspec.paths import (
    HASH_MULTIPLIER,
    HASH_SEED,
    _HASH_MASK,
    PathProfile,
)
from repro.core.events import ExecutionEnd, IterationStart
from repro.isa.registers import NUM_REGISTERS
from repro.trace.batch import FullBatch, RecordBatch


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
        count, any ratio above 100%, or a broken identity: the study
        evaluates exactly the most-frequent-path iterations and scores
        an address for every live-in memory value); derived caches
        treat any of them as a miss.
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
        if evaluated != stats.mfp_iterations \
                or stats.lm_addr_total != stats.lm_total:
            raise ValueError("data-speculation counters inconsistent")
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


class _Tracker:
    """One in-flight iteration: its start, its path hash so far, and
    the live-ins captured so far.

    ``branches`` is the pass's control-transfer count when the
    iteration started, so the path length is a difference at the end.
    """

    __slots__ = ("loop", "start", "branches", "sigval", "live_regs",
                 "live_mem")

    def __init__(self, loop, start, branches):
        self.loop = loop
        self.start = start
        self.branches = branches
        self.sigval = HASH_SEED
        self.live_regs = {}
        self.live_mem = {}


_start_of = attrgetter("start")
_seq_of = attrgetter("seq")


def _score(bucket, histories, t):
    """Score iteration *t*'s live-ins against its loop's
    last-plus-stride *histories* into the :class:`DataSpecStats`
    *bucket*, then fold them in.

    Each history is ``[last, prev]``; a prediction needs both
    (:class:`~repro.core.predictors.LastPlusStride`).  Scoring before
    updating is per key, so one loop over the live-ins does both.
    """
    regs, values, addrs = histories
    bucket.evaluated_iterations += 1
    bucket.lr_total += len(t.live_regs)
    bucket.lm_total += len(t.live_mem)
    regs_all = True
    for reg, value in t.live_regs.items():
        hist = regs.get(reg)
        if hist is None:
            regs[reg] = [value, None]
            regs_all = False
            continue
        last, prev = hist
        if prev is not None and last + (last - prev) == value:
            bucket.lr_correct += 1
        else:
            regs_all = False
        hist[0] = value
        hist[1] = last
    mem_all = True
    for pc, (addr, value) in t.live_mem.items():
        hist = values.get(pc)
        if hist is None:
            values[pc] = [value, None]
            addrs[pc] = [addr, None]
            mem_all = False
            continue
        last, prev = hist
        if prev is not None and last + (last - prev) == value:
            bucket.lm_correct += 1
        else:
            mem_all = False
        hist[0] = value
        hist[1] = last
        hist = addrs[pc]
        last, prev = hist
        if prev is not None and last + (last - prev) == addr:
            bucket.lm_addr_correct += 1
        hist[0] = addr
        hist[1] = last
    if regs_all:
        bucket.all_lr_count += 1
    if mem_all:
        bucket.all_lm_count += 1
        if regs_all:
            bucket.all_data_count += 1


class DataSpeculationAnalyzer:
    """Runs the section-4 study over a full trace.

    :meth:`analyze_batches` streams
    :class:`~repro.trace.batch.FullBatch` columns (from a
    :class:`~repro.cpu.tracer.ChunkedFullTracer`) without ever building
    a record object; :meth:`analyze` adapts a materialized
    :class:`~repro.trace.stream.FullTrace` to it.  The per-record
    two-pass study it replaced is the test oracle in
    ``tests/reference/dataspec.py``.
    """

    def __init__(self, cls_capacity=16):
        self.cls_capacity = cls_capacity

    def analyze(self, full_trace, name="workload"):
        return self.analyze_batches(
            [FullBatch.from_records(full_trace.records)], name)

    def analyze_batches(self, batches, name="workload"):
        """Run the study over an iterable of
        :class:`~repro.trace.batch.FullBatch` (must cover every
        executed instruction contiguously from sequence 0).

        Each batch's control rows go through a
        :class:`~repro.core.detector.LoopDetector` first; the batch's
        loop events carry seqs inside the batch, and the row loop
        applies them as it reaches their seq.  An instruction belongs
        to the iterations in flight *before* the events it causes (a
        closing branch is part of the iteration it ends).

        Live-in capture reads one stamp per location instead of
        scanning every in-flight iteration.  A register's stamp is the
        seq of its latest read *or* write: an iteration that started
        at or after the stamp has neither read nor written it, so it
        captures the read; an older one either already holds the value
        or had it written first.  ``live`` is ordered latest start
        first, so the scan stops at the first older iteration.  A read
        or write at an iteration's starting seq happened in the
        iteration before, hence ``>=``.  Memory live-ins are keyed by
        load pc but blocked by address, so only the per-address store
        stamp bounds the scan and each iteration still checks the pc.
        """
        detector = LoopDetector(cls_capacity=self.cls_capacity)
        detect = detector.feed_batch
        profile = PathProfile()
        record_path = profile.record
        buckets = {}                  # (loop, path digest) -> stats
        histories = {}                # loop -> (regs, mem values, addrs)
        trackers = {}                 # exec_id -> _Tracker
        live = []                     # trackers, latest start first
        newest = -2                   # live[0].start; -2 when none
        reg_stamp = [-1] * NUM_REGISTERS  # seq of latest read or write
        mem_stamp = {}                # addr -> seq of latest store
        ms_get = mem_stamp.get
        hash_mask = _HASH_MASK
        hash_mult = HASH_MULTIPLIER
        base = 0                      # the batch's first seq
        branches = 0

        def apply(events):
            """Apply loop events in order, scoring every iteration
            they end; returns the new ``live``."""
            for event in events:
                etype = type(event)
                if etype is IterationStart:
                    old = trackers.get(event.exec_id)
                    trackers[event.exec_id] = _Tracker(
                        event.loop, event.seq, branches)
                elif etype is ExecutionEnd:
                    old = trackers.pop(event.exec_id, None)
                else:
                    continue
                if old is None:
                    continue
                loop = old.loop
                digest = (old.sigval, branches - old.branches)
                record_path(loop, digest)
                bucket = buckets.get((loop, digest))
                if bucket is None:
                    bucket = buckets[loop, digest] = DataSpecStats()
                history = histories.get(loop)
                if history is None:
                    history = histories[loop] = ({}, {}, {})
                _score(bucket, history, old)
            return sorted(trackers.values(), key=_start_of, reverse=True)

        for batch in batches:
            kinds = batch.kinds
            n = len(kinds)
            control = RecordBatch(
                array("q", compress(range(base, base + n), kinds)),
                array("q", compress(batch.pcs, kinds)),
                array("b", compress(kinds, kinds)),
                array("b", compress(batch.takens, kinds)),
                array("q", compress(batch.targets, kinds)))
            events = groupby(detect(control), _seq_of)
            next_seq, group = next(events, (-1, None))
            for seq, pc, kind, taken, r1, v1, r2, v2, w, ma, mv, wa \
                    in zip(range(base, base + n), batch.pcs, kinds,
                           batch.takens, batch.rr1, batch.rv1, batch.rr2,
                           batch.rv2, batch.wr, batch.mra, batch.mrv,
                           batch.mwa):
                if r1 >= 0:
                    stamp = reg_stamp[r1]
                    reg_stamp[r1] = seq
                    if stamp <= newest:
                        for t in live:
                            if t.start < stamp:
                                break
                            t.live_regs[r1] = v1
                if r2 >= 0:
                    stamp = reg_stamp[r2]
                    reg_stamp[r2] = seq
                    if stamp <= newest:
                        for t in live:
                            if t.start < stamp:
                                break
                            t.live_regs[r2] = v2
                if ma is not None:
                    stamp = ms_get(ma, -1)
                    if stamp <= newest:
                        entry = (ma, mv)
                        for t in live:
                            if t.start < stamp:
                                break
                            if pc not in t.live_mem:
                                t.live_mem[pc] = entry
                if w >= 0:
                    reg_stamp[w] = seq
                if wa is not None:
                    mem_stamp[wa] = seq
                if kind:
                    branches += 1
                    if live:
                        token = pc * 2 + taken
                        for t in live:
                            t.sigval = ((t.sigval * hash_mult) ^ token) \
                                & hash_mask
                    if seq == next_seq:
                        live = apply(group)
                        newest = live[0].start if live else -2
                        next_seq, group = next(events, (-1, None))
            base += n
        apply(detector.finish(base))
        # Each loop counts the iterations on its most frequent path.
        stats = DataSpecStats(name)
        for loop in profile.counts:
            stats.merge(buckets[loop, profile.most_frequent(loop)])
        stats.total_iterations = profile.total_iterations()
        stats.mfp_iterations = stats.evaluated_iterations
        stats.lm_addr_total = stats.lm_total
        return stats
