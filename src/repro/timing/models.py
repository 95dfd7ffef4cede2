"""Built-in timing models.

* :class:`IdealTiming` -- the paper's machine, verbatim; simulations
  under it are bit-for-bit identical to the pre-timing-layer engine.
* :class:`OverheadTiming` -- ideal rates plus per-event costs: a
  *spawn* charge per forked thread, a *promote* charge per
  verification, a *squash* charge per discarded thread.
* :class:`WidthTiming` -- every TU fetches/retires *width* instructions
  per cycle instead of one (the superscalar-TU variant).
* :class:`ClassCostTiming` -- a per-instruction-class cost table fed
  from the workload's control-flow records: control transfers cost
  their class's cycles, straight-line instructions cost ``other``.

Factories canonicalize no-op configurations (all-zero overheads,
width 1, an all-ones cost table) to :class:`IdealTiming`, so sweeps
that include the zero point share its simulations with every
ideal-model pass.
"""

from bisect import bisect_left

from repro.isa.instructions import InstrKind
from repro.timing.base import TimingModel
from repro.timing.registry import register_timing
from repro.trace import kernels


class IdealTiming(TimingModel):
    """One instruction per cycle per TU, free speculation events."""


@register_timing("ideal")
def _make_ideal():
    return IdealTiming()


def _check_cost(name, value, minimum=0):
    if not isinstance(value, int) or value < minimum:
        raise ValueError("timing parameter %s must be an integer >= %d, "
                         "got %r" % (name, minimum, value))
    return value


class OverheadTiming(TimingModel):
    """Ideal rates with non-zero speculation-event costs."""

    def __init__(self, spawn=0, squash=0, promote=0):
        self.spawn = _check_cost("spawn", spawn)
        self.squash = _check_cost("squash", squash)
        self.promote = _check_cost("promote", promote)
        self.name = ("overhead(spawn=%d,squash=%d,promote=%d)"
                     % (self.spawn, self.squash, self.promote))

    def key(self):
        return ("overhead", self.spawn, self.squash, self.promote)

    def spawn_cost(self, count):
        return self.spawn * count

    def promote_cost(self):
        return self.promote

    def squash_cost(self, count):
        return self.squash * count


@register_timing("overhead", params=("spawn", "squash", "promote"))
def _make_overhead(spawn=0, squash=0, promote=0):
    if spawn == squash == promote == 0:
        return IdealTiming()
    return OverheadTiming(spawn=spawn, squash=squash, promote=promote)


class WidthTiming(TimingModel):
    """Width-limited TUs: *width* instructions per cycle each.

    Retire groups are aligned to the stream: reaching position ``p``
    costs ``ceil(p / width)`` cycles, so an advance is priced as the
    difference of two aligned clocks.  The telescoping form keeps
    totals independent of how the engine segments the walk (pricing
    each inter-event stretch with its own ``ceil`` would overcharge
    loop-event-dense regions, exactly where speculation happens).
    :meth:`progress` is the exact inverse of the same clock.
    """

    def __init__(self, width=1):
        self.width = _check_cost("width", width, minimum=1)
        self.name = "width(%d)" % self.width

    def key(self):
        return ("width", self.width)

    def cycles(self, pos, distance):
        width = self.width
        return -(-(pos + distance) // width) - (-(-pos // width))

    def progress(self, elapsed, start_seq, cap):
        width = self.width
        done = width * (elapsed + -(-start_seq // width)) - start_seq
        if done < 0:
            return 0
        return done if done < cap else cap


@register_timing("width", params=("width",))
def _make_width(width=1):
    if width == 1:
        return IdealTiming()
    return WidthTiming(width=width)


#: ``classcost`` parameter name -> :class:`InstrKind` it prices.
_CLASS_PARAMS = (
    ("branch", InstrKind.BRANCH),
    ("jump", InstrKind.JUMP),
    ("ijump", InstrKind.IJUMP),
    ("call", InstrKind.CALL),
    ("ret", InstrKind.RET),
    ("halt", InstrKind.HALT),
    ("other", InstrKind.OTHER),
)


class ClassCostTiming(TimingModel):
    """Position-dependent rates from a per-instruction-class cost table.

    The model is fed every control-flow record of the workload before
    any simulation runs (:func:`~repro.analysis.passes.
    effective_timing` does this where the model is resolved);
    straight-line instructions -- implicit in the ``seq`` gaps between
    records -- cost ``other`` cycles each.  Advance costs are
    answered from a prefix-sum over the fed records, so the engine
    keeps its O(#events) walk with an O(log #records) lookup per
    event.
    """

    wants_records = True

    def __init__(self, **costs):
        self._costs = {}
        for param, kind in _CLASS_PARAMS:
            self._costs[int(kind)] = _check_cost(
                param, costs.pop(param, 1))
        if costs:
            raise ValueError("unknown classcost parameter(s): %s"
                             % ", ".join(sorted(costs)))
        self.other = self._costs[int(InstrKind.OTHER)]
        shown = ["%s=%d" % (param, self._costs[int(kind)])
                 for param, kind in _CLASS_PARAMS
                 if self._costs[int(kind)] != 1]
        self.name = "classcost(%s)" % ",".join(shown)
        # Record seqs and the cumulative extra cost (class cost minus
        # the straight-line rate) of all records up to and including
        # each; cost(0..p) = other*p + extra of records with seq < p.
        self._seqs = []
        self._extra = []
        self._total_extra = 0

    def key(self):
        # "fed": results priced from the fed record stream.  Sweep and
        # search cells once stored ideal-machine values under the
        # untagged key, so entries under it are never read again.
        return ("classcost", "fed") + tuple(
            self._costs[int(kind)] for _, kind in _CLASS_PARAMS)

    def feed_batch(self, batch):
        # Columnar fast path: only the seq and kind columns matter, and
        # the kernel turns them into the prefix-sum increments in bulk.
        seqs, extras, total = kernels.classcost_extras(
            batch, self._costs, self.other, self._total_extra)
        if seqs:
            self._seqs.extend(seqs)
            self._extra.extend(extras)
            self._total_extra = total

    def _cost_to(self, pos):
        """Cycles to execute stream positions ``[0, pos)``."""
        i = bisect_left(self._seqs, pos)
        return self.other * pos + (self._extra[i - 1] if i else 0)

    def cycles(self, pos, distance):
        return self._cost_to(pos + distance) - self._cost_to(pos)

    def progress(self, elapsed, start_seq, cap):
        base = self._cost_to(start_seq)
        if self._cost_to(start_seq + cap) - base <= elapsed:
            return cap
        lo, hi = 0, cap
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._cost_to(start_seq + mid) - base <= elapsed:
                lo = mid
            else:
                hi = mid - 1
        return lo


@register_timing("classcost",
                 params=tuple(param for param, _ in _CLASS_PARAMS))
def _make_classcost(**costs):
    model = ClassCostTiming(**costs)
    if all(cost == 1 for cost in model._costs.values()):
        return IdealTiming()
    return model
