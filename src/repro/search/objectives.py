"""Search objectives: what "adversarial" means, as a score.

An :class:`Objective` turns one candidate's
:class:`~repro.search.evaluate.CandidateMetrics` into a scalar score
(higher = deeper into the frontier) for the hill climber, plus a
boolean *frontier property* -- the pinned claim a promoted workload
must keep satisfying forever (the golden regression tests in
``tests/test_frontier.py`` assert exactly this predicate).

Built-ins:

``tpc-inversion``
    Speculation pays on the paper's ideal machine but *loses* once
    spawns cost real cycles: ideal speedup > 1.0 while the overhead
    model's speedup < 1.0 at the same policy/TU configuration.  Score
    is the smaller of the two margins, so climbing improves both sides
    of the inversion at once.

``coverage-collapse``
    The loop detector's coverage (fraction of dynamic instructions
    inside detected loops) collapses far below the paper's 57-99%
    band.  Score is ``1 - coverage``.

``policy-divergence``
    The spawning policies disagree maximally: score is the TPC spread
    (max - min) across the evaluated policies on the ideal machine at
    the fixed TU count.  The paper's policy *ranking* claims are
    weakest exactly where this spread peaks.

Third-party objectives register with :func:`register_objective`; the
``runner search --objective`` flag accepts any registered name.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

#: Frontier property thresholds (see each objective's docstring).
COVERAGE_COLLAPSE_BELOW = 0.55
POLICY_SPREAD_AT_LEAST = 0.20


@dataclass(frozen=True)
class EvalSettings:
    """The fixed evaluation coordinates every candidate is scored at.

    ``timing`` is the realistic-overhead model of the ``tpc-inversion``
    objective (any :func:`repro.timing.make_timing` spec that does not
    canonicalize to ideal); ``policy`` is the single policy that
    objective compares across timings, while ``policies`` is the set
    the divergence objective spreads over (every policy is simulated
    under both timings regardless, so all objectives read from one
    shared metrics bundle).
    """

    tus: int = 4
    policy: str = "str"
    policies: Tuple[str, ...] = ("idle", "str", "str(3)")
    timing: str = "overhead:spawn=8,squash=0,promote=0"
    scale: int = 1
    max_instructions: Optional[int] = None
    cls_capacity: int = 16

    def __post_init__(self):
        from repro.core.speculation import make_policy
        from repro.timing import make_timing

        if not isinstance(self.tus, int) or self.tus < 1:
            raise ValueError("tus must be an integer >= 1")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.cls_capacity < 1:
            raise ValueError("cls_capacity must be >= 1")
        if self.max_instructions is not None \
                and self.max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")
        policies = tuple(self.policies)
        if not policies:
            raise ValueError("policies must name at least one policy")
        for policy in policies:
            make_policy(policy)     # ValueError on unknown policies
        object.__setattr__(self, "policies", policies)
        if self.policy not in policies:
            raise ValueError("policy %r must be one of the evaluated "
                             "policies (%s)"
                             % (self.policy, ", ".join(policies)))
        make_timing(self.timing)    # ValueError on a bad spec

    def to_dict(self):
        return {
            "tus": self.tus,
            "policy": self.policy,
            "policies": list(self.policies),
            "timing": self.timing,
            "scale": self.scale,
            "max_instructions": self.max_instructions,
            "cls_capacity": self.cls_capacity,
        }

    @classmethod
    def from_dict(cls, payload):
        try:
            return cls(
                tus=payload["tus"],
                policy=payload["policy"],
                policies=tuple(payload["policies"]),
                timing=payload["timing"],
                scale=payload["scale"],
                max_instructions=payload["max_instructions"],
                cls_capacity=payload["cls_capacity"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError("unreadable eval settings: %s" % exc) \
                from None


class Objective:
    """One way of scoring how adversarial a candidate workload is.

    Subclasses define ``score(metrics, settings)`` (a scalar; higher
    is more adversarial) and ``frontier(metrics, settings)`` (whether
    *metrics* satisfy the pinned frontier property);
    ``property_text`` is the human-readable statement of that
    property, rendered into reports, corpus files, and docs.
    """

    def __init__(self, name, description, property_text):
        self.name = name
        self.description = description
        self.property_text = property_text

    def validate(self, settings):
        """Reject *settings* this objective cannot be computed under;
        the default accepts everything."""


class _InversionObjective(Objective):
    def __init__(self):
        super().__init__(
            "tpc-inversion",
            "speculation pays on the ideal machine but loses under "
            "the overhead timing model",
            "ideal speedup > 1.0 and overhead speedup < 1.0 at the "
            "evaluated policy/TU configuration")

    def validate(self, settings):
        from repro.timing import make_timing

        if make_timing(settings.timing).key() == ("ideal",):
            raise ValueError(
                "tpc-inversion needs a non-ideal --timing model to "
                "invert against (got %r)" % settings.timing)

    def score(self, metrics, settings):
        ideal = metrics.sim(settings.policy, "ideal")["speedup"]
        overhead = metrics.sim(settings.policy, "overhead")["speedup"]
        return min(ideal - 1.0, 1.0 - overhead)

    def frontier(self, metrics, settings):
        ideal = metrics.sim(settings.policy, "ideal")["speedup"]
        overhead = metrics.sim(settings.policy, "overhead")["speedup"]
        return ideal > 1.0 and overhead < 1.0


class _CoverageObjective(Objective):
    def __init__(self):
        super().__init__(
            "coverage-collapse",
            "loop detector coverage collapses below the paper's "
            "57-99% band",
            "loop coverage < %.2f" % COVERAGE_COLLAPSE_BELOW)

    def score(self, metrics, settings):
        return 1.0 - metrics.coverage

    def frontier(self, metrics, settings):
        return metrics.coverage < COVERAGE_COLLAPSE_BELOW


class _DivergenceObjective(Objective):
    def __init__(self):
        super().__init__(
            "policy-divergence",
            "spawning policies disagree maximally (ideal-machine TPC "
            "spread at fixed TUs)",
            "TPC spread across policies >= %.2f on the ideal machine"
            % POLICY_SPREAD_AT_LEAST)

    def validate(self, settings):
        if len(settings.policies) < 2:
            raise ValueError("policy-divergence needs at least two "
                             "policies to disagree")

    def score(self, metrics, settings):
        tpcs = [metrics.sim(policy, "ideal")["tpc"]
                for policy in settings.policies]
        return max(tpcs) - min(tpcs)

    def frontier(self, metrics, settings):
        return self.score(metrics, settings) >= POLICY_SPREAD_AT_LEAST


#: Registered objectives by name (``runner search --objective``).
OBJECTIVES = {}


def register_objective(objective):
    """Register *objective*; raises on duplicate names."""
    if objective.name in OBJECTIVES:
        raise ValueError("objective %r already registered"
                         % objective.name)
    OBJECTIVES[objective.name] = objective
    return objective


register_objective(_InversionObjective())
register_objective(_CoverageObjective())
register_objective(_DivergenceObjective())


def get_objective(name):
    """The registered objective called *name*."""
    try:
        return OBJECTIVES[name]
    except KeyError:
        raise KeyError("unknown objective %r (known: %s)"
                       % (name, ", ".join(sorted(OBJECTIVES)))) \
            from None


def objective_names():
    return sorted(OBJECTIVES)
