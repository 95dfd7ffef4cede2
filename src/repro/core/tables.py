"""Loop history tables: the LET and the LIT (paper section 2.3).

Both are associative tables indexed by the loop identifier (target
address T) with LRU replacement:

* the **LET** (Loop Execution Table) characterizes whole executions; its
  recency is the most recent *execution* start, and its hit criterion --
  following section 2.3.1 -- is that two complete executions have been
  observed since the entry was inserted;
* the **LIT** (Loop Iteration Table) characterizes iterations; recency is
  the most recent *iteration* start, and its hit criterion is two
  complete iterations since insertion.

Entries are inserted when a loop execution starts.  An alternative
*nesting-aware* replacement (section 2.3.2) inhibits an insertion that
would evict a loop nested inside the inserting loop; the paper found it
indistinguishable from LRU, and the ablation benchmark verifies that.

The hit-ratio study walks :class:`TableRows`, not single events: most
loop events are iteration starts, they never touch the LET, and a run
of them within one execution touches the LIT once with a closed-form
effect.  The per-event replay it must equal is
``tests/reference/tables.py``.
"""

from array import array
from collections import OrderedDict
from itertools import compress, islice
from operator import ne, or_, sub

from repro.core.detector import (
    EV_EXEC_END,
    EV_EXEC_START,
    EV_ITERATION,
    EventColumns,
)
from repro.core.events import ExecutionEnd, ExecutionStart
from repro.obs import collector as obs

POLICY_LRU = "lru"
POLICY_NESTING_AWARE = "nesting-aware"
_POLICIES = (POLICY_LRU, POLICY_NESTING_AWARE)


class TableEntry:
    """One table entry: identity, the completions-since-insert counter the
    hit criterion needs, and an arbitrary payload (predictors)."""

    __slots__ = ("loop", "completed", "payload")

    def __init__(self, loop):
        self.loop = loop
        self.completed = 0
        self.payload = None

    def __repr__(self):
        return "TableEntry(loop=%d, completed=%d)" % (self.loop,
                                                      self.completed)


class LoopHistoryTable:
    """An associative loop table with LRU or nesting-aware replacement.

    ``capacity=None`` means unbounded (used for limit studies and by the
    speculation engine's default configuration).
    """

    def __init__(self, capacity=None, policy=POLICY_LRU):
        if capacity is not None and capacity < 1:
            raise ValueError("table capacity must be >= 1 or None")
        if policy not in _POLICIES:
            raise ValueError("unknown replacement policy %r" % policy)
        self.capacity = capacity
        self.policy = policy
        self._entries = OrderedDict()   # loop -> TableEntry, LRU order
        self.evictions = 0
        self.inhibited_insertions = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, loop):
        return loop in self._entries

    def lookup(self, loop, touch=True):
        """Return the entry for *loop* (or None), updating recency."""
        entry = self._entries.get(loop)
        if entry is not None and touch:
            self._entries.move_to_end(loop)
        return entry

    def insert(self, loop, nested_in_candidate=None):
        """Insert *loop* if absent; returns its entry (or ``None`` when
        the nesting-aware policy inhibits the insertion).

        *nested_in_candidate* is the set of loops historically observed
        nested inside *loop*; only the nesting-aware policy consults it.
        """
        entry = self._entries.get(loop)
        if entry is not None:
            self._entries.move_to_end(loop)
            return entry
        if self.capacity is not None and len(self._entries) >= self.capacity:
            victim = next(iter(self._entries))
            if self.policy == POLICY_NESTING_AWARE \
                    and nested_in_candidate \
                    and victim in nested_in_candidate:
                self.inhibited_insertions += 1
                return None
            self._entries.pop(victim)
            self.evictions += 1
        entry = TableEntry(loop)
        self._entries[loop] = entry
        return entry

    def loops(self):
        return list(self._entries)


class NestingTracker:
    """Reconstructs, from detector events, which loops have historically
    been observed nested inside each loop (for the nesting-aware policy).
    """

    def __init__(self):
        self._active = []          # (exec_id, loop), outermost first
        self.nested_in = {}        # loop -> set of inner loop ids

    def on_event(self, event):
        if type(event) is ExecutionStart:
            for _, outer_loop in self._active:
                self.nested_in.setdefault(outer_loop, set()).add(event.loop)
            self._active.append((event.exec_id, event.loop))
        elif type(event) is ExecutionEnd:
            for index in range(len(self._active) - 1, -1, -1):
                if self._active[index][0] == event.exec_id:
                    del self._active[index]
                    break

    def nested_inside(self, loop):
        return self.nested_in.get(loop, ())


class TableRows:
    """The rows a :class:`TableHitRatioSimulator` walks: the loop
    events of one index, with each maximal run of consecutive
    iteration starts of one execution folded into one row.

    Row columns: ``kinds`` (the ``EV_*`` code of the row's first
    event), ``loops``, ``exec_ids``, ``firsts`` (the first event's
    ``aux``: for an iteration run, its first iteration number) and
    ``counts`` (events in the row; only an iteration run has more than
    one).  A run's effect on the LIT has a closed form (see
    :meth:`TableHitRatioSimulator.replay_columns`), and iteration
    starts never touch the LET, so a walk costs one step per row.

    A ``TableRows`` is empty until the first walk over an event list
    fills it (so that walk pays for the build); every later walk handed
    the same object reuses the rows.  One object serves one event list.
    """

    __slots__ = ("kinds", "loops", "exec_ids", "firsts", "counts")

    def __init__(self):
        self.kinds = None

    def __len__(self):
        return len(self.kinds)

    def build(self, cols):
        """Fill the rows from :class:`~repro.core.detector.EventColumns`
        *cols* unless already filled; returns ``self``."""
        if self.kinds is not None:
            return self
        etypes = cols.etypes
        exec_ids = cols.exec_ids
        # A row starts at every event but one that continues the run of
        # the event before it: both iteration starts (EV_ITERATION is
        # 0) of one execution.
        row_start = bytearray(b"\x01" if etypes else b"")
        row_start.extend(map(
            or_, map(or_, islice(etypes, 1, None), etypes),
            map(ne, islice(exec_ids, 1, None), exec_ids)))
        self.kinds = bytes(compress(etypes, row_start))
        self.loops = array("q", compress(cols.loops, row_start))
        self.exec_ids = array("q", compress(exec_ids, row_start))
        self.firsts = array("q", compress(cols.auxs, row_start))
        positions = array("q", compress(range(len(etypes)), row_start))
        positions.append(len(etypes))
        self.counts = array("q", map(sub, islice(positions, 1, None),
                                     positions))
        return self


class TableHitRatioSimulator:
    """Replays detector events through a LET and a LIT, measuring the
    paper's hit ratios (Figure 4).

    LET hit: at an execution start, the loop is present with >= 2
    executions completed since insertion.  LIT hit: at an iteration
    start, the loop is present with >= 2 iterations completed since
    insertion.  First iterations are never tested (they are undetected
    until they finish).  The walk runs over :class:`TableRows`, one
    step per run of iteration starts (:meth:`replay_columns`); the
    batch pipeline replays a finished loop index once via
    :meth:`ensure_replayed`, sharing the index's rows across table
    configurations.
    """

    def __init__(self, let_entries, lit_entries, policy=POLICY_LRU):
        self.let = LoopHistoryTable(let_entries, policy)
        self.lit = LoopHistoryTable(lit_entries, policy)
        self.policy = policy
        self._nesting = NestingTracker() if policy == POLICY_NESTING_AWARE \
            else None
        self.let_hits = 0
        self.let_accesses = 0
        self.lit_hits = 0
        self.lit_accesses = 0
        self._replayed = False

    # -- event plumbing -----------------------------------------------------

    def replay(self, events):
        """Replay an ordered loop-event list."""
        return self.replay_columns(EventColumns(events))

    def ensure_replayed(self, index, rows=None):
        """Replay *index* exactly once, however many passes ask.

        Simulators are shared across analysis passes (``ctx.shared``),
        so there is no single "owner": every consumer calls this before
        reading the counters, and only the first call pays for the
        walk.
        *rows* is the index's :class:`TableRows`, shared by every
        configuration that walks it (a fresh one when ``None``).
        """
        if self._replayed:
            return self
        self._replayed = True
        if rows is None:
            rows = TableRows()
        with obs.span("tables", let=self.let.capacity,
                      lit=self.lit.capacity, policy=self.policy):
            cols = index.columns()
            self.replay_columns(cols, rows)
        obs.add("tables.walks")
        obs.add("tables.rows", len(rows))
        obs.add("tables.events", len(cols.etypes))
        return self

    def replay_columns(self, cols, rows=None):
        """Replay a :class:`~repro.core.detector.EventColumns` over its
        :class:`TableRows` *rows* (built here when ``None`` or empty).

        An ``ExecutionStart`` accesses the LET and inserts into both
        tables; the paired ``IterationStart(iteration=2)`` that follows
        performs the LIT access against the freshly ensured entry.
        Later iteration starts first complete the iteration that just
        finished.  An ``ExecutionEnd`` completes one iteration and one
        execution; a ``SingleIteration`` is a start and an end at once.

        A run of *k* iteration starts from iteration *a* touches the
        LIT once.  With the loop present at ``completed = c``, start
        ``j`` (0-based) hits iff ``c + [a > 2] + j >= 2``, and the entry
        ends at ``c + [a > 2] + k - 1``; with it absent, all *k* miss
        (iteration starts never insert).
        """
        if rows is None:
            rows = TableRows()
        rows.build(cols)
        nesting = self._nesting
        let = self.let
        lit = self.lit
        let_entries = let._entries
        lit_entries = lit._entries
        let_hits = self.let_hits
        let_accesses = self.let_accesses
        lit_hits = self.lit_hits
        lit_accesses = self.lit_accesses
        for kind, loop, exec_id, first, count in zip(
                rows.kinds, rows.loops, rows.exec_ids, rows.firsts,
                rows.counts):
            if kind == EV_ITERATION:
                lit_accesses += count
                entry = lit_entries.get(loop)
                if entry is not None:
                    lit_entries.move_to_end(loop)
                    done = entry.completed + (first > 2)
                    if done >= 2:
                        lit_hits += count
                    elif done + count > 2:
                        lit_hits += done + count - 2
                    entry.completed = done + count - 1
            elif kind == EV_EXEC_START:
                if nesting is not None:
                    nested_in = nesting.nested_in
                    for _, outer in nesting._active:
                        nested_in.setdefault(outer, set()).add(loop)
                    nesting._active.append((exec_id, loop))
                    nested = nested_in.get(loop, ())
                else:
                    nested = None
                let_accesses += 1
                entry = let_entries.get(loop)
                if entry is None:
                    let.insert(loop, nested)
                else:
                    let_entries.move_to_end(loop)
                    if entry.completed >= 2:
                        let_hits += 1
                if loop in lit_entries:
                    lit_entries.move_to_end(loop)
                else:
                    lit.insert(loop, nested)
            elif kind == EV_EXEC_END:
                if nesting is not None:
                    active = nesting._active
                    for k in range(len(active) - 1, -1, -1):
                        if active[k][0] == exec_id:
                            del active[k]
                            break
                entry = lit_entries.get(loop)
                if entry is not None:
                    entry.completed += 1
                entry = let_entries.get(loop)
                if entry is not None:
                    entry.completed += 1
            else:                   # EV_SINGLE
                nested = nesting.nested_in.get(loop, ()) \
                    if nesting is not None else None
                let_accesses += 1
                entry = let_entries.get(loop)
                if entry is None:
                    let.insert(loop, nested)
                else:
                    let_entries.move_to_end(loop)
                    if entry.completed >= 2:
                        let_hits += 1
                if loop in lit_entries:
                    lit_entries.move_to_end(loop)
                else:
                    lit.insert(loop, nested)
                entry = lit_entries.get(loop)
                if entry is not None:
                    entry.completed += 1
                entry = let_entries.get(loop)
                if entry is not None:
                    entry.completed += 1
        self.let_hits = let_hits
        self.let_accesses = let_accesses
        self.lit_hits = lit_hits
        self.lit_accesses = lit_accesses
        return self

    # -- persistence ------------------------------------------------------------

    def counters(self):
        """``[let_hits, let_accesses, lit_hits, lit_accesses]`` -- the
        JSON-serializable form :meth:`from_counters` restores."""
        return [self.let_hits, self.let_accesses, self.lit_hits,
                self.lit_accesses]

    @classmethod
    def from_counters(cls, let_entries, lit_entries, policy, counters):
        """A simulator reporting *counters* as if it had replayed.

        Only the counters are restored, not the table contents, so the
        result is marked replayed (:meth:`ensure_replayed` is a no-op).
        Raises ``TypeError`` on malformed input and ``ValueError`` on
        counters no replay can produce (a negative count, or more hits
        than accesses); derived caches treat either as a miss.
        """
        if (not isinstance(counters, list) or len(counters) != 4
                or not all(type(c) is int for c in counters)):
            raise TypeError("table-simulator counters must be four ints")
        let_hits, let_accesses, lit_hits, lit_accesses = counters
        if not (0 <= let_hits <= let_accesses
                and 0 <= lit_hits <= lit_accesses):
            raise ValueError("table-simulator counters out of range: %r"
                             % (counters,))
        sim = cls(let_entries, lit_entries, policy)
        (sim.let_hits, sim.let_accesses, sim.lit_hits,
         sim.lit_accesses) = counters
        sim._replayed = True
        return sim

    # -- results ----------------------------------------------------------------

    @property
    def let_hit_ratio(self):
        if not self.let_accesses:
            return 0.0
        return self.let_hits / self.let_accesses

    @property
    def lit_hit_ratio(self):
        if not self.lit_accesses:
            return 0.0
        return self.lit_hits / self.lit_accesses
