"""Loop statistics in the shape of the paper's Table 1.

Per benchmark: dynamic instruction count, static loop count, average
iterations per execution, average instructions per iteration, and the
average/maximum nesting level.

Modelling note (see docs/ARCHITECTURE.md): the first iteration of an
execution is undetected until it finishes, so instruction counts cover
the *detected, fully delimited* iterations -- iterations 2..n of every
multi-iteration execution.  Iteration and execution *counts* include the
first iterations (they are known retrospectively) and single-iteration
executions.
"""

from repro.core.events import EV_ITERATION, EV_SINGLE


class LoopStatistics:
    """Aggregated Table-1 row for one workload: the counters
    :func:`compute_loop_statistics` reads off a finished index's event
    columns, or :meth:`from_state` restores."""

    __slots__ = ("name", "total_instructions", "static_loops", "executions",
                 "iterations", "measured_iterations",
                 "measured_iteration_instructions", "nesting_sum",
                 "max_nesting", "single_iteration_executions")

    def __init__(self, name="workload"):
        self.name = name
        self.total_instructions = 0
        self.static_loops = 0
        self.executions = 0
        self.iterations = 0
        self.measured_iterations = 0
        self.measured_iteration_instructions = 0
        self.nesting_sum = 0
        self.max_nesting = 0
        self.single_iteration_executions = 0

    @property
    def iterations_per_execution(self):
        if not self.executions:
            return 0.0
        return self.iterations / self.executions

    @property
    def instructions_per_iteration(self):
        if not self.measured_iterations:
            return 0.0
        return (self.measured_iteration_instructions
                / self.measured_iterations)

    @property
    def average_nesting(self):
        if not self.executions:
            return 0.0
        return self.nesting_sum / self.executions

    # -- persistence -------------------------------------------------------

    #: Scalar counters persisted by :meth:`state`.
    STATE_FIELDS = ("name", "total_instructions", "static_loops",
                    "executions", "iterations", "measured_iterations",
                    "measured_iteration_instructions", "nesting_sum",
                    "max_nesting", "single_iteration_executions")

    def state(self):
        """Every counter as a JSON-serializable dict -- the exact
        inverse of :meth:`from_state`."""
        return {field: getattr(self, field)
                for field in self.STATE_FIELDS}

    @classmethod
    def from_state(cls, state):
        """Rebuild finalized statistics from :meth:`state` output.

        Raises ``KeyError``/``TypeError`` on malformed input and
        ``ValueError`` on counters no index can produce (a negative
        count, or more loops or single-iteration executions than
        executions); derived caches treat any of them as a miss.
        """
        stats = cls(state["name"])
        for field in cls.STATE_FIELDS:
            value = state[field]
            if field != "name":
                if not isinstance(value, int):
                    raise TypeError("non-integer counter %r" % field)
                if value < 0:
                    raise ValueError("negative counter %r" % field)
            setattr(stats, field, value)
        if max(stats.static_loops,
               stats.single_iteration_executions) > stats.executions:
            raise ValueError("loop-statistics counters out of range")
        return stats

    def as_row(self):
        """Row in the column order of the paper's Table 1."""
        return (self.name, self.total_instructions, self.static_loops,
                round(self.iterations_per_execution, 2),
                round(self.instructions_per_iteration, 2),
                round(self.average_nesting, 2), self.max_nesting)

    ROW_HEADERS = ("program", "#instr", "#loops", "#iter/exec",
                   "#instr/iter", "avg. nl", "max. nl")


def compute_loop_statistics(index, name="workload"):
    """Aggregate a finished :class:`~repro.core.detector.LoopIndex` into
    a :class:`LoopStatistics`, reading its event columns.

    Every execution has one undetected first iteration and one per
    iteration-start row, and its detected iterations are the measured
    ones: they run from its first iteration start, at its start seq,
    to its end, so their instructions telescope into ``end seq - start
    seq`` (0 for a single iteration).  Every row's loop is its
    execution's, so the static loops are the distinct ``loops``.
    """
    cols = index.columns
    seqs = cols.seqs
    starts = cols.start_rows
    depths = [cols.auxs[row] for row in starts]
    detected = cols.etypes.count(EV_ITERATION)
    stats = LoopStatistics(name)
    stats.total_instructions = index.total_instructions
    stats.static_loops = len(set(cols.loops))
    stats.executions = len(starts)
    stats.iterations = stats.executions + detected
    stats.single_iteration_executions = cols.etypes.count(EV_SINGLE)
    stats.measured_iterations = detected
    stats.measured_iteration_instructions = \
        sum(map(seqs.__getitem__, cols.end_rows)) \
        - sum(map(seqs.__getitem__, starts))
    stats.nesting_sum = sum(depths)
    stats.max_nesting = max(depths, default=0)
    return stats


def loop_coverage(index):
    """Fraction of dynamic instructions spent inside detected loops.

    Depth-1 (outermost; CLS depth is 1-based) executions are mutually
    non-overlapping and contain every nested execution, so summing
    their spans measures the paper's "time spent in loops" without
    double counting.  Executions dropped by CLS overflow are not
    recovered; the number is therefore a (tight, for sane capacities)
    lower bound.
    """
    if not index.total_instructions:
        return 0.0
    cols = index.columns
    seqs = cols.seqs
    auxs = cols.auxs
    covered = sum(seqs[end] - seqs[start]
                  for start, end in zip(cols.start_rows, cols.end_rows)
                  if auxs[start] == 1)
    return min(1.0, covered / index.total_instructions)
