"""Loop events emitted by the dynamic loop detector, as columns.

The detector emits one event per iteration start, execution start,
execution end or single-iteration execution.  Event sequence numbers
refer to the dynamic instruction index of the control transfer that
*caused* the event.  By the paper's definitions:

* an execution is *detected* when the first backward branch/jump to its
  target commits -- i.e. when the second iteration begins -- so its
  execution start and its first iteration start (iteration 2) share one
  sequence number;
* every later iteration start sits on the taken loop-closing branch
  ending the previous iteration;
* an execution end sits on the terminating instruction (not-taken
  closing branch, exiting branch/jump, return, ...).

The CLS writes the events straight into :class:`EventColumns`, the one
store of loop executions: there is no per-event or per-execution
object.
"""

import enum
from array import array

#: :class:`EventColumns` type codes, index-aligned with ``etypes``.
EV_ITERATION = 0
EV_EXEC_START = 1
EV_EXEC_END = 2
EV_SINGLE = 3


class EndReason(enum.IntEnum):
    """Why a loop execution terminated (or was abandoned); the code
    :attr:`EventColumns.end_reasons` holds (0 is no reason: a single
    iteration, or an execution not yet ended)."""

    NOT_TAKEN = 1       # paper rule (i): not-taken closing branch
    EXIT = 2            # paper rule (ii): exit branch
    RETURN = 3          # paper rule (iii): return
    OUTER = 4           # popped when an outer loop iterated or ended
    OVERFLOW = 5        # CLS overflow: the deepest entry dropped
    FLUSH = 6           # end of trace


class EventColumns:
    """The loop-event list of a trace as parallel columns.

    Per event row: ``etypes`` holds its ``EV_*`` code, ``seqs``/
    ``loops``/``exec_ids`` its sequence number, loop (target address
    T) and execution, and ``auxs`` the type-specific field: the
    iteration number of an iteration start (2 for an execution's first
    detected one), the 1-based CLS depth of an execution start or a
    single iteration (for a single iteration, the depth it would have
    had), and the iteration count of an execution end.

    Per execution, indexed by ``exec_id`` (dense from 0, in start
    order): ``start_rows`` holds the row of its execution start (its
    ``EV_SINGLE`` row for a single iteration), ``end_rows`` the row of
    its execution end (the same ``EV_SINGLE`` row; -1 while it is
    open) and ``end_reasons`` its :class:`EndReason` code.  So an
    execution's loop, start seq and depth are the start row's
    ``loops``/``seqs``/``auxs``, its end seq is the end row's ``seqs``
    and its iteration count the end row's ``auxs`` (1 for a single
    iteration).

    ``iteration_positions`` maps each pushed execution's ``exec_id`` to
    the ascending rows of its iteration starts: iteration ``k + 2``
    began at ``seqs[positions[k]]``.  A walker that knows nothing can
    happen at an iteration start (all TUs busy, execution untracked)
    bisects straight to the next row where something can.
    """

    __slots__ = ("etypes", "seqs", "loops", "exec_ids", "auxs",
                 "start_rows", "end_rows", "end_reasons",
                 "iteration_positions")

    def __init__(self):
        self.etypes = bytearray()
        self.seqs = array("q")
        self.loops = array("q")
        self.exec_ids = array("q")
        self.auxs = array("q")
        self.start_rows = array("q")
        self.end_rows = array("q")
        self.end_reasons = bytearray()
        self.iteration_positions = {}

    def append(self, etype, seq, loop, exec_id, aux):
        """Append one event row (no per-execution column included)."""
        self.etypes.append(etype)
        self.seqs.append(seq)
        self.loops.append(loop)
        self.exec_ids.append(exec_id)
        self.auxs.append(aux)

    def __len__(self):
        return len(self.etypes)
