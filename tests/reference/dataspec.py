"""The data-speculation study's reference: the per-record, two-pass
study the production single pass replaced.

Pass 1 replays every :class:`~repro.trace.record.FullRecord` through
the reference CLS (``tests/reference/cls.py``) and gives each in-flight
loop iteration its own :class:`IterationTracker`, with explicit
written-register and written-address sets and a
:class:`PathSignature`.  Pass 2 walks each loop's finished iterations
in order, scores those on the loop's most frequent path and updates the
last-plus-stride histories from every iteration.  No stamps, no
bucketed scores, no event leaping: each step is the definition.
"""

from repro.core.dataspec.paths import (
    HASH_MULTIPLIER,
    HASH_SEED,
    _HASH_MASK,
    PathProfile,
)
from repro.core.dataspec.stats import DataSpecStats

from reference.cls import ReferenceCLS
from reference.events import ExecutionEnd, IterationStart
from reference.predictors import LastPlusStride


class PathSignature:
    """Incrementally hashes an iteration's control-flow path."""

    __slots__ = ("value", "length")

    def __init__(self):
        self.value = HASH_SEED
        self.length = 0

    def update(self, pc, taken):
        token = pc * 2 + (1 if taken else 0)
        self.value = ((self.value * HASH_MULTIPLIER) ^ token) & _HASH_MASK
        self.length += 1

    def digest(self):
        return (self.value, self.length)


class IterationObservation:
    """Finalized view of one loop iteration's path and live-ins."""

    __slots__ = ("loop", "exec_id", "iteration", "path", "live_regs",
                 "live_mem")

    def __init__(self, loop, exec_id, iteration, path, live_regs, live_mem):
        self.loop = loop
        self.exec_id = exec_id
        self.iteration = iteration
        self.path = path                # (hash, length)
        self.live_regs = live_regs      # {reg: value at first read}
        self.live_mem = live_mem        # {load_pc: (addr, value)}


class IterationTracker:
    """Accumulates one in-flight iteration's effects.

    A live-in register is one read before it is written within the
    iteration; a live-in memory location is one loaded before it is
    stored, keyed by the static load pc with its address and value.
    """

    __slots__ = ("loop", "exec_id", "iteration", "_sig", "_regs_written",
                 "live_regs", "_mem_written", "live_mem")

    def __init__(self, loop, exec_id, iteration):
        self.loop = loop
        self.exec_id = exec_id
        self.iteration = iteration
        self._sig = PathSignature()
        self._regs_written = set()
        self.live_regs = {}
        self._mem_written = set()
        self.live_mem = {}

    def observe(self, record):
        """Fold one executed instruction into the iteration state."""
        for reg, value in record.reg_reads:
            if reg and reg not in self._regs_written \
                    and reg not in self.live_regs:
                self.live_regs[reg] = value
        for reg, _value in record.reg_writes:
            self._regs_written.add(reg)
        for addr, value in record.mem_reads:
            if addr not in self._mem_written \
                    and record.pc not in self.live_mem:
                self.live_mem[record.pc] = (addr, value)
        for addr, _value in record.mem_writes:
            self._mem_written.add(addr)
        if record.kind:
            self._sig.update(record.pc, record.taken)

    def finalize(self):
        return IterationObservation(self.loop, self.exec_id,
                                    self.iteration, self._sig.digest(),
                                    self.live_regs, self.live_mem)


def collect(records, total, cls_capacity=16):
    """Pass 1: ``({loop: [IterationObservation]}, PathProfile)``, each
    loop's observations in the order its iterations finished."""
    cls = ReferenceCLS(cls_capacity)
    trackers = {}                 # exec_id -> IterationTracker
    observations = {}
    profile = PathProfile()

    def apply(events):
        for event in events:
            if type(event) is IterationStart:
                old = trackers.get(event.exec_id)
                trackers[event.exec_id] = IterationTracker(
                    event.loop, event.exec_id, event.iteration)
            elif type(event) is ExecutionEnd:
                old = trackers.pop(event.exec_id, None)
            else:
                continue
            if old is not None:
                obs = old.finalize()
                profile.record(obs.loop, obs.path)
                observations.setdefault(obs.loop, []).append(obs)

    for record in records:
        # The instruction belongs to the iterations in flight *before*
        # any loop event it triggers (a closing branch is part of the
        # iteration it ends).
        for tracker in trackers.values():
            tracker.observe(record)
        if record.kind:
            apply(cls.step(record.seq, record.pc, record.kind,
                           record.taken, record.target))
    apply(cls.flush(total))
    return observations, profile


def evaluate(observations_by_loop, profile, name):
    """Pass 2: score each loop's most-frequent-path iterations."""
    stats = DataSpecStats(name)
    stats.total_iterations = profile.total_iterations()
    stats.mfp_iterations = sum(max(per_loop.values())
                               for per_loop in profile.counts.values())
    for loop, observations in observations_by_loop.items():
        mfp = profile.most_frequent(loop)
        reg_hist = {}            # reg -> LastPlusStride
        mem_val_hist = {}        # load pc -> LastPlusStride
        mem_addr_hist = {}       # load pc -> LastPlusStride
        for obs in observations:
            if obs.path == mfp:
                score(stats, obs, reg_hist, mem_val_hist, mem_addr_hist)
            for reg, value in obs.live_regs.items():
                reg_hist.setdefault(reg, LastPlusStride()).update(value)
            for pc, (addr, value) in obs.live_mem.items():
                mem_val_hist.setdefault(pc, LastPlusStride()).update(value)
                mem_addr_hist.setdefault(pc, LastPlusStride()).update(addr)
    return stats


def score(stats, obs, reg_hist, mem_val_hist, mem_addr_hist):
    stats.evaluated_iterations += 1
    regs_all = True
    for reg, value in obs.live_regs.items():
        stats.lr_total += 1
        hist = reg_hist.get(reg)
        if hist is not None and hist.ready and hist.predict() == value:
            stats.lr_correct += 1
        else:
            regs_all = False
    mem_all = True
    for pc, (addr, value) in obs.live_mem.items():
        stats.lm_total += 1
        stats.lm_addr_total += 1
        vhist = mem_val_hist.get(pc)
        if vhist is not None and vhist.ready and vhist.predict() == value:
            stats.lm_correct += 1
        else:
            mem_all = False
        ahist = mem_addr_hist.get(pc)
        if ahist is not None and ahist.ready and ahist.predict() == addr:
            stats.lm_addr_correct += 1
    if regs_all:
        stats.all_lr_count += 1
    if mem_all:
        stats.all_lm_count += 1
    if regs_all and mem_all:
        stats.all_data_count += 1


def reference_stats(full_trace, name="workload", cls_capacity=16):
    """The study over a :class:`~repro.trace.stream.FullTrace`."""
    observations, profile = collect(full_trace.records,
                                    full_trace.total_instructions,
                                    cls_capacity)
    return evaluate(observations, profile, name)
