"""Per-loop control-flow path profiling (paper section 4).

A *path* is the control-flow signature of one loop iteration: the
sequence of executed control transfers (pc, direction).  The paper
reports that each loop's most frequent path covers ~85% of all
iterations, which underpins live-in value speculation: same-path
iterations see the same live-in sets.
"""

#: The incremental path-hash parameters: a path's digest folds
#: ``pc * 2 + taken`` of each control transfer into
#: ``(hash * HASH_MULTIPLIER) ^ token`` from ``HASH_SEED``, masked to
#: 61 bits, and pairs the hash with the transfer count.  The study in
#: :mod:`repro.core.dataspec.stats` folds it inline; the test oracle
#: uses the same constants, so the two produce comparable digests.
HASH_SEED = 0x345678
HASH_MULTIPLIER = 1000003
_HASH_MASK = (1 << 61) - 1


class PathProfile:
    """Counts path signatures per loop."""

    def __init__(self):
        self.counts = {}          # loop -> {signature: count}

    def record(self, loop, signature):
        per_loop = self.counts.setdefault(loop, {})
        per_loop[signature] = per_loop.get(signature, 0) + 1

    def most_frequent(self, loop):
        per_loop = self.counts.get(loop)
        if not per_loop:
            return None
        return max(per_loop.items(), key=lambda kv: kv[1])[0]

    def iterations(self, loop):
        per_loop = self.counts.get(loop, {})
        return sum(per_loop.values())

    def total_iterations(self):
        return sum(self.iterations(loop) for loop in self.counts)
