"""The CLS's reference: the six rules of the :mod:`repro.core.cls`
docstring transcribed record by record, with no quick reject.

Every control transfer visits every rule that could apply to its kind,
and the exit rule (``t <= pc <= b`` and not ``t <= target <= b``) is
checked against every stacked entry.  The production
:class:`~repro.core.cls.CurrentLoopStack` skips work the rules prove
is a no-op; :func:`reference_events` states what that work would have
produced, so tests can pin ``process_batch`` against it event for
event.
"""

from repro.core.events import (
    EndReason,
    ExecutionEnd,
    ExecutionStart,
    IterationStart,
    SingleIteration,
)
from repro.isa.instructions import InstrKind

BRANCH = int(InstrKind.BRANCH)
JUMP = int(InstrKind.JUMP)
IJUMP = int(InstrKind.IJUMP)
RET = int(InstrKind.RET)


class _Entry:
    def __init__(self, t, b, exec_id):
        self.t = t
        self.b = b
        self.exec_id = exec_id
        self.iteration = 2

    def contains(self, pc):
        return self.t <= pc <= self.b


class ReferenceCLS:
    """A CLS of *capacity* entries; ``stack[0]`` is the outermost."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.stack = []
        self.next_exec_id = 0
        self.overflow_count = 0

    def _end(self, seq, entry, reason):
        return ExecutionEnd(seq, entry.t, entry.exec_id, entry.iteration,
                            reason)

    def _innermost_index(self, target):
        found = None
        for i, entry in enumerate(self.stack):
            if entry.t == target:
                found = i
        return found

    def _pop_above(self, seq, index):
        """End every entry nested above ``stack[index]``, innermost
        first."""
        events = []
        while len(self.stack) > index + 1:
            events.append(self._end(seq, self.stack.pop(),
                                    EndReason.OUTER))
        return events

    def _exit_rule(self, seq, pc, target, skip=None):
        """Rule 4: end every entry whose body contains *pc* but not
        *target*, innermost first."""
        leaving = [entry for entry in self.stack
                   if entry is not skip and entry.contains(pc)
                   and not entry.contains(target)]
        self.stack = [entry for entry in self.stack
                      if entry not in leaving]
        return [self._end(seq, entry, EndReason.EXIT)
                for entry in reversed(leaving)]

    def step(self, seq, pc, kind, taken, target):
        """The events of one control transfer (*target* None when
        unknown)."""
        if kind == RET:
            # Rule 5: a return ends every loop whose body contains it.
            leaving = [entry for entry in self.stack if entry.contains(pc)]
            self.stack = [entry for entry in self.stack
                          if not entry.contains(pc)]
            return [self._end(seq, entry, EndReason.RETURN)
                    for entry in reversed(leaving)]
        if kind == BRANCH and not taken:
            if target is None or target > pc:
                return []
            index = self._innermost_index(target)
            if index is None:
                # A one-iteration execution that never reached the CLS.
                exec_id = self.next_exec_id
                self.next_exec_id += 1
                return [SingleIteration(seq, target, exec_id,
                                        len(self.stack) + 1)]
            entry = self.stack[index]
            if pc < entry.b:
                return []
            # Rule 3: the not-taken closing branch ends the execution.
            events = self._pop_above(seq, index)
            self.stack.pop()
            events.append(self._end(seq, entry, EndReason.NOT_TAKEN))
            return events
        if kind not in (BRANCH, JUMP, IJUMP) or not taken \
                or target is None:
            return []
        if target > pc:
            return self._exit_rule(seq, pc, target)
        index = self._innermost_index(target)
        if index is not None:
            # Rule 2: a backward transfer to a stacked loop closes an
            # iteration; the exit rule then applies to the others.
            events = self._pop_above(seq, index)
            entry = self.stack[index]
            entry.b = max(entry.b, pc)
            entry.iteration += 1
            events.append(IterationStart(seq, entry.t, entry.exec_id,
                                         entry.iteration))
            events.extend(self._exit_rule(seq, pc, target, skip=entry))
            return events
        # Rule 1: a backward transfer to an unknown loop pushes it,
        # after the exit rule; rule 6 drops the outermost on overflow.
        events = self._exit_rule(seq, pc, target)
        if len(self.stack) == self.capacity:
            self.overflow_count += 1
            events.append(self._end(seq, self.stack.pop(0),
                                    EndReason.OVERFLOW))
        entry = _Entry(target, pc, self.next_exec_id)
        self.next_exec_id += 1
        self.stack.append(entry)
        depth = len(self.stack)
        events.append(ExecutionStart(seq, target, entry.exec_id, depth))
        events.append(IterationStart(seq, target, entry.exec_id, 2))
        return events

    def flush(self, seq):
        events = []
        while self.stack:
            events.append(self._end(seq, self.stack.pop(),
                                    EndReason.FLUSH))
        return events


def reference_events(records, capacity, total):
    """The loop events of *records* (objects with ``seq``/``pc``/
    ``kind``/``taken``/``target``), ending with the flush at *total*.

    Returns ``(events, overflow_count)``.
    """
    cls = ReferenceCLS(capacity)
    events = []
    for rec in records:
        events.extend(cls.step(rec.seq, rec.pc, rec.kind, rec.taken,
                               rec.target))
    events.extend(cls.flush(total))
    return events, cls.overflow_count
