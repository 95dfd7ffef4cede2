"""The speculation disable table (paper section 2.3.2).

    "It may be convenient to disable the recognition of some loops by
    introducing a new table containing those potential loops that are
    not suitable for speculation. [...] those loops with a poor
    prediction rate may be good candidates to store in this table."

Per-loop speculation outcomes are tracked; once a loop has produced
enough resolved threads with a poor hit rate it enters an associative
LRU *disable table*, and the engine stops speculating on it.  This
protects both the TUs (no more doomed threads on erratic loops) and the
LET/LIT (reliable loops are not evicted by hopeless ones).
"""

from repro.core.tables import LoopHistoryTable


class LoopOutcomeStats:
    """Running per-loop speculation outcome counts."""

    __slots__ = ("correct", "wrong")

    def __init__(self):
        self.correct = 0
        self.wrong = 0

    @property
    def resolved(self):
        return self.correct + self.wrong

    @property
    def hit_rate(self):
        total = self.resolved
        return self.correct / total if total else 1.0


class SpeculationDisableTable:
    """Blocks thread speculation on demonstrably unpredictable loops."""

    def __init__(self, capacity=16, min_samples=5, hit_threshold=0.5):
        if not 0.0 <= hit_threshold <= 1.0:
            raise ValueError("hit_threshold must be within [0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.min_samples = min_samples
        self.hit_threshold = hit_threshold
        self._blocked = LoopHistoryTable(capacity)
        self._stats = {}
        self.blocks_installed = 0

    def note(self, loop, correct):
        """Record one resolved speculation outcome for *loop*."""
        stats = self._stats.get(loop)
        if stats is None:
            stats = self._stats[loop] = LoopOutcomeStats()
        if correct:
            stats.correct += 1
        else:
            stats.wrong += 1
        if stats.resolved >= self.min_samples \
                and stats.hit_rate < self.hit_threshold \
                and loop not in self._blocked:
            self._blocked.insert(loop)
            self.blocks_installed += 1

    def blocked(self, loop):
        """True when speculation on *loop* is disabled (a pure query:
        the walk skips it at events where no spawn is possible)."""
        return self._blocked.lookup(loop, touch=False) is not None

    def stats_for(self, loop):
        return self._stats.get(loop)

    def blocked_loops(self):
        return self._blocked.loops()

    def __len__(self):
        return len(self._blocked)
