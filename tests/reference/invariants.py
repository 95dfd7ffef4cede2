"""Invariants every control-flow trace and every speculation result
obeys, stated once.

:func:`check_trace` raises ``ValueError`` when a control-flow trace
breaks one of its invariants: sequence numbers strictly increase, every
record's ``seq`` is below ``total_instructions``, and consecutive
records are linked by straight-line execution (the instructions
between two records are exactly the pcs falling through from the
first record's successor to the second record's pc).

:func:`check_result` returns the invariants a
:class:`~repro.core.speculation.metrics.SpeculationResult` violates
(an empty list when it obeys all of them):

* **overhead accounting** -- every overhead cycle is attributable:
  ``overhead_cycles == spawn * threads_spawned + promote * promoted
  + squash * squashed`` under the run's timing model (all costs 0
  under the ideal model);
* **TPC bounds** -- ``1 <= tpc <= num_tus``: the non-speculative
  thread is always active, and at most ``num_tus`` threads are;
* **one TU** -- ``tpc == 1``: with no spare TU nothing speculates;
* **hit ratio** -- in ``[0, 1]``;
* **zero cost is free** -- given the ideal-machine result of the same
  configuration as *ideal*, a result priced by an overhead model whose
  costs are all 0 equals it in every field but ``timing_name``.
"""

from repro.isa.instructions import InstrKind
from repro.timing import make_timing
from repro.timing.models import OverheadTiming

from records import iter_records


def _costs(model):
    if type(model) is OverheadTiming:
        return model.spawn, model.promote, model.squash
    return 0, 0, 0


def check_result(result, timing=None, ideal=None):
    """The invariants *result* violates, as readable strings.

    *timing* is the model (or spec) that priced *result*; *ideal* is
    the same configuration's ideal-machine result, checked against
    *result* when the model's costs are all 0.
    """
    model = make_timing(timing)
    spawn, promote, squash = _costs(model)
    violations = []
    expected = (spawn * result.threads_spawned
                + promote * result.promoted + squash * result.squashed)
    if result.overhead_cycles != expected:
        violations.append("overhead_cycles %d != %d"
                          % (result.overhead_cycles, expected))
    num_tus = result.num_tus
    if num_tus is not None:
        if not 1.0 <= result.tpc <= num_tus:
            violations.append("tpc %r outside [1, %d]"
                              % (result.tpc, num_tus))
        if num_tus == 1 and result.tpc != 1.0:
            violations.append("tpc %r != 1 at one TU" % result.tpc)
    if not 0.0 <= result.hit_ratio <= 1.0:
        violations.append("hit ratio %r outside [0, 1]"
                          % result.hit_ratio)
    if ideal is not None and (spawn, promote, squash) == (0, 0, 0):
        got = result.state()
        want = ideal.state()
        del got["timing_name"], want["timing_name"]
        if got != want:
            violations.append("zero-cost result differs from ideal: %r"
                              % sorted(k for k in got
                                       if got[k] != want[k]))
    return violations


def check_trace(trace):
    """``True`` when control-flow *trace* obeys its invariants; raises
    ``ValueError`` naming the first record that breaks one."""
    halt = int(InstrKind.HALT)
    prev = None
    for rec in iter_records(trace):
        if rec.seq >= trace.total_instructions:
            raise ValueError("record %r beyond trace length" % (rec,))
        if prev is not None:
            if rec.seq <= prev.seq:
                raise ValueError("non-monotonic seq at %r" % (rec,))
            if prev.kind != halt \
                    and rec.pc - prev.next_pc != rec.seq - prev.seq - 1:
                raise ValueError(
                    "straight-line gap mismatch between %r and %r"
                    % (prev, rec))
        prev = rec
    return True
