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


class LoopStatistics:
    """Aggregated Table-1 row for one workload.

    Accumulates incrementally: call :meth:`observe` with each completed
    :class:`~repro.core.detector.LoopExecutionRecord` as its execution
    ends, then :meth:`finalize` once the stream is exhausted.
    :func:`compute_loop_statistics` does both over a finished index.
    """

    __slots__ = ("name", "total_instructions", "static_loops", "executions",
                 "iterations", "measured_iterations",
                 "measured_iteration_instructions", "nesting_sum",
                 "max_nesting", "single_iteration_executions",
                 "overflow_drops", "observed_loops")

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
        self.overflow_drops = 0
        self.observed_loops = set()

    def observe(self, rec):
        """Fold one completed execution record into the aggregates."""
        self.observed_loops.add(rec.loop)
        self.executions += 1
        iterations = rec.iterations if rec.iterations is not None else \
            rec.detected_iterations + 1
        self.iterations += iterations
        if iterations == 1:
            self.single_iteration_executions += 1
        lengths = rec.iteration_lengths()
        self.measured_iterations += len(lengths)
        self.measured_iteration_instructions += sum(lengths)
        self.nesting_sum += rec.depth
        if rec.depth > self.max_nesting:
            self.max_nesting = rec.depth
        return self

    def finalize(self):
        """Derive the counts that need the whole stream; returns self."""
        self.static_loops = len(self.observed_loops)
        return self

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

    #: Scalar counters persisted by :meth:`state` (``observed_loops``
    #: is folded into ``static_loops`` by :meth:`finalize` first).
    STATE_FIELDS = ("name", "total_instructions", "static_loops",
                    "executions", "iterations", "measured_iterations",
                    "measured_iteration_instructions", "nesting_sum",
                    "max_nesting", "single_iteration_executions",
                    "overflow_drops")

    def state(self):
        """Every counter as a JSON-serializable dict -- the exact
        inverse of :meth:`from_state`.  Call :meth:`finalize` first:
        the loop-identity set itself is not persisted, only its size."""
        return {field: getattr(self, field)
                for field in self.STATE_FIELDS}

    @classmethod
    def from_state(cls, state):
        """Rebuild finalized statistics from :meth:`state` output.

        Raises ``KeyError``/``TypeError`` on malformed input and
        ``ValueError`` on counters no index can produce (a negative
        count, or more loops or single-iteration executions than
        executions); derived caches treat any of them as a miss.  The
        restored object is finalized: ``observed_loops`` is empty and
        ``static_loops`` is authoritative.
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

    def __repr__(self):
        return ("LoopStatistics(%s: loops=%d, iter/exec=%.2f, "
                "instr/iter=%.2f, nl=%.2f/%d)"
                % (self.name, self.static_loops,
                   self.iterations_per_execution,
                   self.instructions_per_iteration,
                   self.average_nesting, self.max_nesting))


def compute_loop_statistics(index, name="workload"):
    """Aggregate a :class:`~repro.core.detector.LoopIndex` into a
    :class:`LoopStatistics`."""
    stats = LoopStatistics(name)
    stats.total_instructions = index.total_instructions
    for rec in index.executions.values():
        stats.observe(rec)
    return stats.finalize()


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
    covered = sum(rec.end_seq - rec.start_seq
                  for rec in index.executions.values()
                  if rec.depth == 1 and rec.end_seq is not None)
    return min(1.0, covered / index.total_instructions)
