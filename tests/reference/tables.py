"""Per-event LET/LIT replay: the reference for
:meth:`repro.core.tables.TableHitRatioSimulator.replay_columns`.

One loop event at a time, through the public table API
(:class:`~repro.core.tables.LoopHistoryTable` lookups and inserts,
:class:`~repro.core.tables.NestingTracker` for the nesting-aware
policy), with the paper's hit criteria spelled out per event type
(section 2.3.1).
"""

from repro.core.events import (
    ExecutionEnd,
    ExecutionStart,
    IterationStart,
    SingleIteration,
)
from repro.core.tables import (
    POLICY_LRU,
    POLICY_NESTING_AWARE,
    LoopHistoryTable,
    NestingTracker,
)


class EventTableReplay:
    """LET + LIT hit-ratio replay over a loop-event list."""

    def __init__(self, let_entries, lit_entries, policy=POLICY_LRU):
        self.let = LoopHistoryTable(let_entries, policy)
        self.lit = LoopHistoryTable(lit_entries, policy)
        self._nesting = NestingTracker() \
            if policy == POLICY_NESTING_AWARE else None
        self.let_hits = 0
        self.let_accesses = 0
        self.lit_hits = 0
        self.lit_accesses = 0

    def replay(self, events):
        for event in events:
            self.on_event(event)
        return self

    def counters(self):
        return [self.let_hits, self.let_accesses, self.lit_hits,
                self.lit_accesses]

    def on_event(self, event):
        if self._nesting is not None:
            self._nesting.on_event(event)
        etype = type(event)
        if etype is IterationStart:
            if event.iteration > 2:
                # The iteration that just finished completes now.
                self._complete_iteration(event.loop)
            self._access_lit(event.loop)
        elif etype is ExecutionStart:
            # The paired IterationStart(iteration=2) event that follows
            # performs the LIT access against the freshly ensured entry.
            self._access_let(event.loop)
            self._insert_both(event.loop)
        elif etype is ExecutionEnd:
            self._complete_iteration(event.loop)
            self._complete_execution(event.loop)
        elif etype is SingleIteration:
            self._access_let(event.loop)
            self._insert_both(event.loop)
            self._complete_iteration(event.loop)
            self._complete_execution(event.loop)

    def _access_let(self, loop):
        self.let_accesses += 1
        entry = self.let.lookup(loop)
        if entry is not None and entry.completed >= 2:
            self.let_hits += 1

    def _access_lit(self, loop):
        self.lit_accesses += 1
        entry = self.lit.lookup(loop)
        if entry is not None and entry.completed >= 2:
            self.lit_hits += 1

    def _insert_both(self, loop):
        nested = self._nesting.nested_inside(loop) \
            if self._nesting else None
        self.let.insert(loop, nested)
        self.lit.insert(loop, nested)

    def _complete_iteration(self, loop):
        entry = self.lit.lookup(loop, touch=False)
        if entry is not None:
            entry.completed += 1

    def _complete_execution(self, loop):
        entry = self.let.lookup(loop, touch=False)
        if entry is not None:
            entry.completed += 1
