"""The Current Loop Stack (paper section 2.2).

The CLS tracks every loop currently executing.  Each entry carries the
loop target address ``T`` (its identifier) and ``B``, the highest address
observed so far of a backward branch/jump to ``T``.  The stack is updated
on branches, jumps and returns exactly as the paper specifies:

* a taken backward transfer to an unknown ``T`` *pushes* a new loop
  (its first iteration just finished -- detection is retroactive);
* a taken backward transfer to a stacked ``T`` closes an iteration,
  popping everything above that entry (their executions ended);
* a not-taken closing branch at ``B`` ends both the iteration and the
  execution;
* any taken branch/jump whose source lies inside a stacked loop's body
  but whose target lies outside ends that loop's execution (break/goto);
* a return ends every stacked loop whose body contains it;
* on overflow the deepest (outermost) entry is dropped, penalizing the
  least common loops.

The CLS writes every loop event it causes straight into its
:class:`~repro.core.events.EventColumns` (``columns``): the event row,
and at a push, a single iteration or an end the execution's start row,
end row and end reason.  Callers (detector, speculation engine,
statistics collectors) read those columns rather than re-deriving loop
structure.
"""

from array import array

from repro.isa.instructions import InstrKind
from repro.core.events import (
    EV_EXEC_END,
    EV_EXEC_START,
    EV_ITERATION,
    EV_SINGLE,
    EndReason,
    EventColumns,
)

_K_BRANCH = int(InstrKind.BRANCH)
_K_JUMP = int(InstrKind.JUMP)
_K_IJUMP = int(InstrKind.IJUMP)
_K_RET = int(InstrKind.RET)

#: Default capacity; the paper uses 16 entries and shows (Table 1) that
#: SPEC95 nesting never exceeds it.
DEFAULT_CAPACITY = 16


class CLSEntry:
    """One stacked loop: identifier ``t``, body upper bound ``b``, and
    its current execution: ``exec_id``, the number of the iteration in
    progress and its iteration-start positions."""

    __slots__ = ("t", "b", "exec_id", "iteration", "positions")

    def __init__(self, t, b, exec_id, positions):
        self.t = t
        self.b = b
        self.exec_id = exec_id
        self.iteration = 2          # detection == second iteration starting
        self.positions = positions

    def contains(self, pc):
        return self.t <= pc <= self.b


class CurrentLoopStack:
    """The CLS plus event generation.

    Feed control-transfer records through :meth:`process_batch`; it
    appends the loop events they cause to ``columns`` and returns their
    positions.  Call :meth:`flush` once the trace ends.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("CLS capacity must be >= 1")
        self.capacity = capacity
        self.entries = []           # index 0 = outermost, -1 = innermost
        self.next_exec_id = 0
        self.overflow_count = 0
        self.columns = EventColumns()

    # -- main update rules -------------------------------------------------

    def process_batch(self, batch):
        """Apply one :class:`~repro.trace.batch.RecordBatch` of control
        transfers; returns the ``range`` of ``columns`` positions its
        loop events were appended at, in stream order.

        One fused scalar loop reads the columns directly, skips the
        common no-event cases -- calls, forward or missing targets with
        nothing stacked -- and closes an innermost iteration in place,
        without touching the per-rule methods.
        Calls never update the CLS: subroutine activations belong to
        the enclosing loop execution.  The CLS is deliberately *not*
        kernel-driven: its stack state makes per-record verdicts
        sequential, and a vectorized candidate walk measured slower
        than this loop (see the note in :mod:`repro.trace.kernels`).
        A ``target`` of ``-1`` encodes ``None``.
        """
        cols = self.columns
        etypes = cols.etypes
        start = len(etypes)
        etype_append = etypes.append
        seq_append = cols.seqs.append
        loop_append = cols.loops.append
        exec_append = cols.exec_ids.append
        aux_append = cols.auxs.append
        entries = self.entries      # the rules edit it in place
        k_branch = _K_BRANCH
        k_jump = _K_JUMP
        k_ijump = _K_IJUMP
        k_ret = _K_RET
        for seq, pc, kind, taken, target in zip(
                batch.seqs, batch.pcs, batch.kinds, batch.takens,
                batch.targets):
            if kind == k_branch:
                if not taken:
                    if target >= 0 and target <= pc:
                        self._process_not_taken(seq, pc, target)
                    continue
            elif kind == k_jump or kind == k_ijump:
                if not taken:
                    continue
            elif kind == k_ret:
                if entries:
                    self._process_return(seq, pc)
                continue
            else:
                continue        # calls, halt, and unknown kinds
            # A taken branch or jump.
            if target < 0:
                continue
            if target > pc:
                # A forward transfer: only the exit rule applies, and
                # it ends only entries with t <= pc <= b < target.
                # Most match none and skip the rule's rebuild.
                for entry in entries:
                    if entry.t <= pc <= entry.b < target:
                        self._apply_exit_rule(seq, pc, target)
                        break
                continue
            if entries:
                top = entries[-1]
                if top.t == target:
                    # The innermost loop iterates unless the transfer
                    # leaves an outer loop's body (the exit rule).
                    for entry in entries:
                        if target < entry.t <= pc <= entry.b:
                            break
                    else:
                        if pc > top.b:
                            top.b = pc
                        iteration = top.iteration = top.iteration + 1
                        top.positions.append(len(etypes))
                        etype_append(EV_ITERATION)
                        seq_append(seq)
                        loop_append(target)
                        exec_append(top.exec_id)
                        aux_append(iteration)
                        continue
            self._process_backward(seq, pc, target)
        return range(start, len(etypes))

    def flush(self, seq):
        """End of trace: terminate every stacked execution; returns the
        ``range`` of ``columns`` positions of their end events."""
        start = len(self.columns)
        entries = self.entries
        while entries:
            self._end(seq, entries.pop(), EndReason.FLUSH)
        return range(start, len(self.columns))

    # -- rule implementations ---------------------------------------------

    def _process_backward(self, seq, pc, target):
        entries = self.entries
        # The exit rule ends only entries with target < t <= pc <= b;
        # most backward transfers match none and skip its rebuild.
        for entry in entries:
            if target < entry.t <= pc <= entry.b:
                exits = True
                break
        else:
            exits = False
        index = self._find(target)
        if index is None:
            # New loop: first apply the exit rule (this transfer may
            # leave other loops' bodies), then push.
            if exits:
                self._apply_exit_rule(seq, pc, target)
            self._push(seq, target, pc)
            return
        # The loop-closing case.  Everything nested above the
        # iterating loop terminates.
        while len(entries) - 1 > index:
            self._end(seq, entries.pop(), EndReason.OUTER)
        entry = entries[index]
        if pc > entry.b:
            entry.b = pc
        self._iterate(seq, entry)
        # The exit rule still applies to the loops that remain
        # stacked below: an overlapped loop whose body contains
        # this branch but not its target terminates (definition
        # rule ii; see Figure 2d's interleaved executions).
        if exits:
            self._apply_exit_rule(seq, pc, target, skip=entry)

    def _process_not_taken(self, seq, pc, target):
        index = self._find(target)
        if index is None:
            # A complete one-iteration execution of a loop that never
            # reached the CLS.
            exec_id = self.next_exec_id
            self.next_exec_id += 1
            cols = self.columns
            position = len(cols.etypes)
            cols.start_rows.append(position)
            cols.end_rows.append(position)
            cols.end_reasons.append(0)
            cols.append(EV_SINGLE, seq, target, exec_id,
                        len(self.entries) + 1)
            return
        entries = self.entries
        entry = entries[index]
        if entry.b > pc:
            # A backward branch inside the body but not at B; the loop
            # goes on.
            return
        while len(entries) - 1 > index:
            self._end(seq, entries.pop(), EndReason.OUTER)
        entries.pop()
        self._end(seq, entry, EndReason.NOT_TAKEN)

    def _process_return(self, seq, pc):
        # Selective removal, innermost first in the emitted events.
        entries = self.entries
        removed = [entry for entry in entries if entry.contains(pc)]
        if not removed:
            return
        entries[:] = [entry for entry in entries
                      if not entry.contains(pc)]
        for entry in reversed(removed):
            self._end(seq, entry, EndReason.RETURN)

    def _apply_exit_rule(self, seq, pc, target, skip=None):
        """Terminate loops whose body contains *pc* but not *target*."""
        entries = self.entries
        kept = []
        removed = []
        for entry in entries:
            if entry is not skip and entry.contains(pc) \
                    and not entry.contains(target):
                removed.append(entry)
            else:
                kept.append(entry)
        if not removed:
            return
        entries[:] = kept
        for entry in reversed(removed):
            self._end(seq, entry, EndReason.EXIT)

    def _push(self, seq, target, pc):
        entries = self.entries
        if len(entries) >= self.capacity:
            self.overflow_count += 1
            self._end(seq, entries.pop(0), EndReason.OVERFLOW)
        exec_id = self.next_exec_id
        self.next_exec_id = exec_id + 1
        depth = len(entries) + 1
        cols = self.columns
        position = len(cols.etypes)
        cols.start_rows.append(position)
        cols.end_rows.append(-1)
        cols.end_reasons.append(0)
        positions = cols.iteration_positions[exec_id] = \
            array("q", (position + 1,))
        entries.append(CLSEntry(target, pc, exec_id, positions))
        # The execution start and its first detected iteration (2).
        cols.etypes.extend((EV_EXEC_START, EV_ITERATION))
        cols.seqs.extend((seq, seq))
        cols.loops.extend((target, target))
        cols.exec_ids.extend((exec_id, exec_id))
        cols.auxs.extend((depth, 2))

    # -- helpers -----------------------------------------------------------

    def _find(self, target):
        """Innermost entry index with identifier *target*, or None."""
        entries = self.entries
        for index in range(len(entries) - 1, -1, -1):
            if entries[index].t == target:
                return index
        return None

    def _iterate(self, seq, entry):
        """Start *entry*'s next iteration at *seq*."""
        entry.iteration += 1
        cols = self.columns
        entry.positions.append(len(cols))
        cols.append(EV_ITERATION, seq, entry.t, entry.exec_id,
                    entry.iteration)

    def _end(self, seq, entry, reason):
        """End *entry*'s execution at *seq* (already off the stack)."""
        cols = self.columns
        exec_id = entry.exec_id
        cols.end_rows[exec_id] = len(cols.etypes)
        cols.end_reasons[exec_id] = reason
        cols.append(EV_EXEC_END, seq, entry.t, exec_id, entry.iteration)
