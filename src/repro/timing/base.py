"""The timing-model protocol.

The paper evaluates an idealized multithreaded machine: every thread
unit retires one instruction per cycle, spawning a thread is free,
promotion is instantaneous, squashes cost nothing.  A
:class:`TimingModel` makes each of those assumptions explicit and
replaceable: the speculation walk routes *every* time advance and
overhead charge through its configuration's model, so asking
"does control speculation still pay off when forks cost 32 cycles?" is
a model swap, not an engine fork (see ``docs/TIMING.md``).

A model answers two kinds of questions:

* **Rates** — how many cycles the non-speculative thread needs to cover
  a stretch of the dynamic instruction stream (:meth:`cycles`), and how
  many instructions a speculative thread gets through in a given number
  of cycles (:meth:`progress`).  The walk inlines the defaults below
  and calls an override instead; an override must let an advance be
  split anywhere without changing its total (a difference of two
  prefix clocks), because the walk prices the stretch of events it
  skips in one call.  A model whose rates vary along the stream (the
  per-instruction-class cost table) sets :attr:`wants_records` and is
  fed every control-flow record of the workload's trace before the
  simulation runs.
* **Overheads** — extra cycles charged at speculation events:
  :meth:`spawn_cost` when threads fork, :meth:`promote_cost` when a
  speculated thread is verified and promoted, :meth:`squash_cost` when
  threads are discarded.  The walk accumulates these into
  ``SpeculationResult.overhead_cycles``.  It prices an event as
  ``spawn_cost(1)``/``squash_cost(1)`` per thread, so both must be
  linear in *count*.

Models must be **read-only during a simulation**: the walk may run
many simulations (different TU counts, policies) against one model
instance, and ``ctx.shared`` memoization relies on a model being fully
described by :meth:`key`.  Per-run state is not allowed; per-*workload*
state (the record-fed cost table) is set up before any simulation via
:meth:`feed_batch`.
"""


class TimingModel:
    """Base timing model; the defaults ARE the paper's ideal machine.

    Subclasses override the hooks they need.  All cycle values are
    integers; costs must be non-negative.
    """

    #: Model name as reported in ``SpeculationResult.timing_name``.
    name = "ideal"

    #: True when the model must see every CF record of the workload's
    #: trace (via :meth:`feed_batch`) before simulations run.
    wants_records = False

    def key(self):
        """Hashable canonical configuration, for memoization.  Two
        models with equal keys must produce identical simulations."""
        return ("ideal",)

    def feed_batch(self, batch):
        """One :class:`~repro.trace.batch.RecordBatch` of the trace,
        only called when :attr:`wants_records` is set; a model that
        sets it must override this."""
        raise NotImplementedError(
            "%s sets wants_records but does not override feed_batch"
            % type(self).__name__)

    # -- rates ---------------------------------------------------------------

    def cycles(self, pos, distance):
        """Cycles the non-speculative thread needs to advance
        *distance* instructions starting at stream position *pos*."""
        return distance

    def progress(self, elapsed, start_seq, cap):
        """Instructions a speculative thread starting at *start_seq*
        executes in *elapsed* cycles, never more than *cap*."""
        return elapsed if elapsed < cap else cap

    # -- overheads -----------------------------------------------------------

    def spawn_cost(self, count):
        """Cycles charged when *count* threads are forked at once;
        linear in *count*."""
        return 0

    def promote_cost(self):
        """Cycles charged when a speculated thread is verified correct
        and promoted to non-speculative."""
        return 0

    def squash_cost(self, count):
        """Cycles charged when *count* threads are squashed at once;
        linear in *count*."""
        return 0

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.name)
