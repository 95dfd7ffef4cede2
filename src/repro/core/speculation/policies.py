"""Thread-allocation policies (paper section 3.1.2).

Given a loop iteration starting in the non-speculative thread, a policy
decides how many further consecutive iterations of that loop to
speculate:

* **IDLE** -- as many as there are idle thread units.
* **STR** -- bound the allocation by the predicted number of remaining
  iterations: ``last count + stride`` when the stride is reliable (two-
  bit counter), else the last execution's count, else fall back to IDLE.
* **STR(i)** -- STR, plus: when more than *i* non-speculated loops are
  nested inside a speculated loop, squash the outermost speculated
  loop's threads so idle TUs can serve the inner loops.
* **OracleAll** -- the idealized limit policy of Figure 5: speculate
  every remaining *actual* iteration, capped by the idle TUs (the only
  policy valid with unlimited TUs, and the only one allowed to peek at
  the oracle).
"""


class Policy:
    """Base class of the four built-in policies.

    A policy is a name and, for STR(i), a nesting limit: the spawn
    rules live in the speculation walk
    (:mod:`repro.core.speculation.grid`), which dispatches on the
    policy's type and rejects any other subclass.
    """

    #: STR(i) nesting limit; None disables the squash rule.
    nesting_limit = None

    name = "base"

    def __repr__(self):
        return "%s()" % type(self).__name__


class IdlePolicy(Policy):
    """Allocate every idle TU (paper's IDLE)."""

    name = "IDLE"


class StrPolicy(Policy):
    """Stride-predicted allocation (paper's STR)."""

    name = "STR"


class StrIPolicy(StrPolicy):
    """STR(i): STR plus the nested-loop squash rule."""

    def __init__(self, limit):
        if limit < 1:
            raise ValueError("STR(i) requires i >= 1")
        self.nesting_limit = limit
        self.name = "STR(%d)" % limit

    def __repr__(self):
        return "StrIPolicy(%d)" % self.nesting_limit


class OracleAllPolicy(Policy):
    """Speculate all remaining actual iterations (Figure 5 limit study;
    the only policy valid with unlimited TUs)."""

    name = "ALL"


def make_policy(spec):
    """Build a policy from a short spec string: ``"idle"``, ``"str"``,
    ``"str(2)"``, or ``"all"`` (case-insensitive)."""
    if isinstance(spec, Policy):
        return spec
    text = spec.strip().lower()
    if text == "idle":
        return IdlePolicy()
    if text == "str":
        return StrPolicy()
    if text == "all":
        return OracleAllPolicy()
    if text.startswith("str(") and text.endswith(")"):
        return StrIPolicy(int(text[4:-1]))
    raise ValueError("unknown policy spec %r" % (spec,))
