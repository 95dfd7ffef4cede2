"""Event-driven simulation of thread control speculation (section 3).

Timing is delegated to the pluggable model layer in
:mod:`repro.timing` (see docs/TIMING.md); the default
:class:`~repro.timing.models.IdealTiming` is the paper's machine --
one instruction per cycle per thread unit, free spawns, instantaneous
promotion.  Threads are contiguous regions of the dynamic instruction
stream; between loop events every active TU advances at the model's
rate, so the simulation walks the detector's event list -- an
O(#events) algorithm that makes 16-TU and unlimited-TU runs equally
cheap.  The walk itself is :mod:`repro.core.speculation.grid`'s, the
one every configuration runs; this module holds one configuration.

Mechanics per the paper:

* **Speculation** happens whenever a loop iteration starts in the
  non-speculative thread; the policy allocates idle TUs to further
  consecutive iterations of that loop.
* **Verification** happens when the non-speculative thread starts a loop
  iteration (the first speculated thread of that loop is promoted and
  the old non-speculative TU freed) or finishes a loop execution (all
  remaining speculated iterations of that loop are squashed).
* **Promotion is instantaneous**: the promoted thread's already-executed
  instructions move the non-speculative position forward; loop events
  inside the skipped range are applied for bookkeeping and verification
  but cannot spawn threads into the past.
"""

from repro.core.speculation import grid
from repro.obs import collector as obs


class SpeculationEngine:
    """One speculation configuration: a TU count, a built-in policy, a
    timing model, waiting-credit accounting and an optional
    :class:`~repro.core.speculation.disable.SpeculationDisableTable`.

    ``num_tus=None`` models unlimited contexts and is only valid with
    the oracle policy (Figure 5's limit study).
    """

    __slots__ = ("policy", "num_tus", "count_waiting", "disable_table",
                 "timing")

    def __init__(self, num_tus=4, policy="str", count_waiting=True,
                 disable_table=None, timing=None):
        self.num_tus, self.policy, self.timing = grid.check_config(
            num_tus, policy, timing)
        self.count_waiting = count_waiting
        self.disable_table = disable_table

    def run(self, index, name="workload"):
        """Simulate over a :class:`~repro.core.detector.LoopIndex`.

        The engine is an *oracle*: spawning threads reads the
        speculated iterations' future boundary sequence numbers from
        the index, so *index* must be the completed index of the trace.
        A disable table is updated in place.
        """
        with obs.span("engine.simulate", workload=name,
                      policy=self.policy.name):
            return grid._run_fused(
                index, grid.grid_tables(index), self.num_tus, self.policy,
                self.timing, name, self.count_waiting,
                disable_table=self.disable_table)


def simulate(index, num_tus=4, policy="str", name="workload",
             count_waiting=True, disable_table=None, timing=None):
    """One-call convenience wrapper around :class:`SpeculationEngine`."""
    engine = SpeculationEngine(num_tus=num_tus, policy=policy,
                               count_waiting=count_waiting,
                               disable_table=disable_table,
                               timing=timing)
    return engine.run(index, name=name)


def simulate_infinite(index, name="workload", timing=None):
    """Figure 5's idealized study: unlimited TUs, oracle iteration
    counts, speculation at loop-execution detection."""
    engine = SpeculationEngine(num_tus=None, policy="all", timing=timing)
    return engine.run(index, name=name)
