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

The CLS writes the events straight into :class:`EventColumns` and
keeps one :class:`LoopExecutionRecord` per execution beside them;
there is no per-event object.
"""

import enum
from array import array

#: :class:`EventColumns` type codes, index-aligned with ``etypes``.
EV_ITERATION = 0
EV_EXEC_START = 1
EV_EXEC_END = 2
EV_SINGLE = 3


class EndReason(enum.Enum):
    """Why a loop execution terminated (or was abandoned)."""

    NOT_TAKEN = "not-taken-closing-branch"   # paper rule (i)
    EXIT = "exit-branch"                     # paper rule (ii)
    RETURN = "return"                        # paper rule (iii)
    OUTER = "outer-loop-event"               # popped when an outer loop
    #                                          iterated or terminated
    OVERFLOW = "cls-overflow"                # deepest entry dropped
    FLUSH = "end-of-trace"                   # trace exhausted


class EventColumns:
    """The loop-event list of a trace as parallel columns.

    ``etypes`` holds each event's ``EV_*`` code, ``seqs``/``loops``/
    ``exec_ids`` its sequence number, loop (target address T) and
    execution, and ``auxs`` the type-specific field: the iteration
    number of an iteration start (2 for an execution's first detected
    one), the 1-based CLS depth of an execution start or a single
    iteration (for a single iteration, the depth it would have had),
    and the iteration count of an execution end.  An end's
    :class:`EndReason` lives on its execution's record.

    ``iteration_positions`` maps each pushed execution's ``exec_id`` to
    the ascending positions of its iteration starts, so a walker that
    knows nothing can happen at an iteration start (all TUs busy,
    execution untracked) bisects straight to the next position where
    something can.
    """

    __slots__ = ("etypes", "seqs", "loops", "exec_ids", "auxs",
                 "iteration_positions")

    def __init__(self):
        self.etypes = bytearray()
        self.seqs = array("q")
        self.loops = array("q")
        self.exec_ids = array("q")
        self.auxs = array("q")
        self.iteration_positions = {}

    def append(self, etype, seq, loop, exec_id, aux):
        """Append one event row (iteration positions not included)."""
        self.etypes.append(etype)
        self.seqs.append(seq)
        self.loops.append(loop)
        self.exec_ids.append(exec_id)
        self.auxs.append(aux)

    def __len__(self):
        return len(self.etypes)


class LoopExecutionRecord:
    """One detected loop execution.

    ``iter_seqs[k]`` is the sequence number at which iteration ``k + 2``
    began (detection starts at the second iteration); ``end_seq`` is the
    terminating instruction.  A single-iteration execution has no
    ``iter_seqs``, ``start_seq == end_seq`` and no ``reason``.
    """

    __slots__ = ("exec_id", "loop", "start_seq", "iter_seqs", "end_seq",
                 "iterations", "reason", "depth")

    def __init__(self, exec_id, loop, start_seq, depth):
        self.exec_id = exec_id
        self.loop = loop
        self.start_seq = start_seq
        self.iter_seqs = []
        self.end_seq = None
        self.iterations = None
        self.reason = None
        self.depth = depth

    @property
    def detected_iterations(self):
        """Iterations observable by hardware (excludes the undetected
        first iteration of multi-iteration executions)."""
        return len(self.iter_seqs)

    def iteration_lengths(self):
        """Instruction counts of fully delimited iterations."""
        bounds = list(self.iter_seqs)
        if self.end_seq is not None:
            bounds.append(self.end_seq)
        return [b - a for a, b in zip(bounds, bounds[1:])]

    def __repr__(self):
        return ("LoopExecutionRecord(exec=%d, loop=%d, iters=%r, "
                "reason=%r)" % (self.exec_id, self.loop, self.iterations,
                                self.reason))
