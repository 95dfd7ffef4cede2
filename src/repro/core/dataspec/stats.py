"""The data-speculation study (paper section 4, Figure 8).

One pass over a trace's blocks (:class:`~repro.trace.batch.StudyBatch`
rows): the loop detector walks their terminators while every in-flight
loop iteration collects its control-flow path and its live-in registers
and memory locations.  A live-in register is one
read before it is written within the iteration; a live-in memory
location is one loaded before it is stored, keyed by the static load pc
(what a LIT would use to associate history across iterations) with both
its address and value kept so each can be stride-predicted.

When an iteration ends it is scored at once against its loop's
histories, predicting each live-in as ``last value + stride of the last
two iterations`` (unbounded LIT/LET capacity as the paper assumes for
these figures), and the histories are updated from it.  The scores
accumulate per ``(loop, path)``; at the end each loop contributes only
the bucket of its most frequent path (the paper's methodology), while
history was updated on every iteration.
"""

from itertools import groupby
from operator import attrgetter, itemgetter

from repro.core.detector import LoopDetector
from repro.core.dataspec.paths import (
    HASH_MULTIPLIER,
    HASH_SEED,
    _HASH_MASK,
    PathProfile,
)
from repro.core.events import EV_EXEC_END, EV_ITERATION
from repro.isa.registers import NUM_REGISTERS
from repro.obs import collector as obs
from repro.trace.batch import StudyBatch


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
_seq_of = itemgetter(1)


def _score(bucket, histories, t):
    """Score iteration *t*'s live-ins against its loop's
    last-plus-stride *histories* into the :class:`DataSpecStats`
    *bucket*, then fold them in.

    Each history is ``[last, prev]``; a prediction needs both.  Scoring
    before updating is per key, so one loop over the live-ins does both.
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
    """Runs the section-4 study over a trace's blocks.

    :meth:`analyze_batches` streams
    :class:`~repro.trace.batch.StudyBatch` rows (from a
    :class:`~repro.cpu.tracer.ChunkedFullTracer`) without ever building
    a record object; :meth:`analyze` groups a materialized
    :class:`~repro.trace.stream.FullTrace` into rows first.  The
    per-record two-pass study it replaced is the test oracle in
    ``tests/reference/dataspec.py``.
    """

    def __init__(self, cls_capacity=16):
        self.cls_capacity = cls_capacity

    def analyze(self, full_trace, name="workload"):
        return self.analyze_batches(
            [StudyBatch.from_records(full_trace.records)], name)

    def analyze_batches(self, batches, name="workload"):
        """Run the study over an iterable of
        :class:`~repro.trace.batch.StudyBatch` (must cover every
        executed instruction contiguously from sequence 0).

        Each batch's terminators go through a
        :class:`~repro.core.detector.LoopDetector` first; the batch's
        loop events carry seqs inside the batch, and the row loop
        applies them as it reaches their seq.  A block belongs to the
        iterations in flight *before* the events its terminator causes
        (a closing branch is part of the iteration it ends).

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

        Iterations start only at terminators, so every seq of a block
        compares alike against every start: the block's accesses all
        take its terminator's seq as their stamp.  Only a block's first
        access to a register can capture, and only if it is a read (an
        upward-exposed read), against the stamp from before the block;
        the block then stamps every register it touched.  Its loads and
        stores run in program order, so a load after a store to the
        same address in the block captures nothing.
        """
        detector = LoopDetector(cls_capacity=self.cls_capacity)
        detect = detector.feed_batch
        cols = detector.columns
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
        instructions = blocks = exposed_reads = memory_ops = 0
        branches = 0

        def loop_events(positions):
            """``(etype, seq, loop, exec_id)`` of the loop events at
            *positions*, a range the detector just appended."""
            lo, hi = positions.start, positions.stop
            return zip(cols.etypes[lo:hi], cols.seqs[lo:hi],
                       cols.loops[lo:hi], cols.exec_ids[lo:hi])

        def apply(events):
            """Apply loop events in order, scoring every iteration
            they end; returns the new ``live``."""
            for etype, seq, loop, exec_id in events:
                if etype == EV_ITERATION:
                    old = trackers.get(exec_id)
                    trackers[exec_id] = _Tracker(loop, seq, branches)
                elif etype == EV_EXEC_END:
                    old = trackers.pop(exec_id, None)
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
            rows = batch.rows
            instructions += len(batch)
            blocks += len(rows)
            events = groupby(loop_events(detect(batch.control)), _seq_of)
            next_seq, group = next(events, (-1, None))
            for end, (exposed, touched, ops), data, token in rows:
                i = len(exposed)
                exposed_reads += i
                memory_ops += len(ops)
                if i and live:
                    for reg, value in zip(exposed, data):
                        stamp = reg_stamp[reg]
                        if stamp <= newest:
                            for t in live:
                                if t.start < stamp:
                                    break
                                t.live_regs[reg] = value
                for reg in touched:
                    reg_stamp[reg] = end
                for pc in ops:
                    addr = data[i]
                    if pc < 0:
                        mem_stamp[addr] = end
                        i += 1
                        continue
                    stamp = ms_get(addr, -1)
                    if stamp <= newest:
                        entry = (addr, data[i + 1])
                        for t in live:
                            if t.start < stamp:
                                break
                            if pc not in t.live_mem:
                                t.live_mem[pc] = entry
                    i += 2
                if token is None:
                    continue
                branches += 1
                if live:
                    for t in live:
                        t.sigval = ((t.sigval * hash_mult) ^ token) \
                            & hash_mask
                if end == next_seq:
                    live = apply(group)
                    newest = live[0].start if live else -2
                    next_seq, group = next(events, (-1, None))
        apply(loop_events(detector.finish(instructions)))
        obs.add("dataspec.blocks", blocks)
        obs.add("dataspec.exposed_reads", exposed_reads)
        obs.add("dataspec.memory_ops", memory_ops)
        # Each loop counts the iterations on its most frequent path.
        stats = DataSpecStats(name)
        for loop in profile.counts:
            stats.merge(buckets[loop, profile.most_frequent(loop)])
        stats.total_iterations = profile.total_iterations()
        stats.mfp_iterations = stats.evaluated_iterations
        stats.lm_addr_total = stats.lm_total
        return stats
