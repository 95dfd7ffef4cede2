"""Workload profiles: the parameter space of the synthetic generator.

A :class:`WorkloadProfile` describes a *family* of programs by the
distributions that shaped the paper's Table 1 — nesting depth,
iteration (trip) counts, loop-exit irregularity, branch density,
call/recursion mix, and array working-set size.  The generator
(:mod:`repro.workloads.synthetic.generator`) draws one concrete program
from a family given a seed; ``synth-<profile>-<seed>`` therefore names
a reproducible workload, and sweeping seeds explores the family
(``runner characterize``).

Discrete distributions are tuples of ``(value, weight)`` pairs;
trip-count distributions use ``((low, high), weight)`` pairs sampled
uniformly inside the chosen range.  Everything is a plain frozen
dataclass so profiles hash, compare, and validate eagerly.  Validation
failures always name the offending field *and* the offending value
(``nesting_depth[1]=(0, 4): ...``), so a rejected hand-written or
mutated profile is diagnosable from the message alone.

Profiles round-trip through plain dicts (:meth:`WorkloadProfile.to_dict`
/ :meth:`WorkloadProfile.from_dict`); :func:`profile_digest` hashes
their canonical JSON minus the name,
which is how the adversarial search (:mod:`repro.search`) derives
content-addressed names for mutated candidate profiles.
"""

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Tuple


class ProfileValidationError(ValueError):
    """A :class:`WorkloadProfile` field failed validation.

    Always carries the offending ``field`` name and ``value`` so
    callers (and error messages) can point at exactly what to fix.
    """

    def __init__(self, field, value, requirement):
        self.field = field
        self.value = value
        super().__init__("%s=%r: %s" % (field, value, requirement))


def _check_weighted(name, pairs):
    if not isinstance(pairs, tuple) or not pairs:
        raise ProfileValidationError(
            name, pairs, "must be a non-empty tuple of (value, weight) "
            "pairs")
    for i, pair in enumerate(pairs):
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise ProfileValidationError(
                "%s[%d]" % (name, i), pair,
                "must be a (value, weight) pair")
        _value, weight = pair
        if not isinstance(weight, int) or weight <= 0:
            raise ProfileValidationError(
                "%s[%d]" % (name, i), pair,
                "weights must be positive ints")
    return pairs


def _check_probability(name, value):
    if not isinstance(value, (int, float)) \
            or not 0.0 <= value <= 1.0:
        raise ProfileValidationError(name, value, "must be in [0, 1]")
    return value


@dataclass(frozen=True)
class WorkloadProfile:
    """The knobs a synthetic workload family is drawn from.

    ``nesting_depth`` and ``trip_count`` are weighted distributions
    sampled per loop nest / per loop level; ``exit_irregularity`` is the
    probability a loop gets a data-dependent early exit (a ``rand()``
    guarded ``Break``); ``branch_density`` the probability a body slot
    becomes a data-dependent ``If``; ``call_mix`` the probability an
    innermost body calls a helper function; ``recursion_depth`` bounds
    the depth of the recursive helper (0 disables recursion entirely).
    ``working_set`` is the size in words of each global data array.
    ``target_instructions`` is the approximate dynamic instruction count
    of one repetition at ``scale=1``; the generator sizes trip counts so
    every generated program provably halts within its budget.
    """

    name: str
    description: str = ""
    #: weighted (depth, weight) choices, one draw per loop nest
    nesting_depth: Tuple = ((1, 3), (2, 4), (3, 2))
    #: weighted ((low, high), weight) ranges, one draw per loop level
    trip_count: Tuple = (((2, 4), 2), ((5, 16), 4), ((20, 64), 2))
    exit_irregularity: float = 0.2
    branch_density: float = 0.3
    call_mix: float = 0.25
    recursion_depth: int = 0
    working_set: int = 256
    num_arrays: int = 2
    #: top-level loop nests (one generated function each)
    num_nests: int = 4
    #: (low, high) arithmetic statements per loop body
    body_ops: Tuple[int, int] = (2, 6)
    #: approximate dynamic instructions per repetition (scale unit)
    target_instructions: int = 120_000
    default_max_instructions: int = 2_000_000
    category: str = "int"

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name \
                or any(c.isspace() for c in self.name):
            raise ProfileValidationError(
                "name", self.name, "must be a non-empty token without "
                "whitespace")
        _check_weighted("nesting_depth", self.nesting_depth)
        for i, (depth, _weight) in enumerate(self.nesting_depth):
            if not isinstance(depth, int) or depth < 1:
                raise ProfileValidationError(
                    "nesting_depth[%d]" % i, (depth, _weight),
                    "depths must be ints >= 1")
        _check_weighted("trip_count", self.trip_count)
        for i, (bounds, _weight) in enumerate(self.trip_count):
            if not isinstance(bounds, tuple) or len(bounds) != 2 \
                    or not all(isinstance(b, int) for b in bounds) \
                    or not 2 <= bounds[0] <= bounds[1]:
                raise ProfileValidationError(
                    "trip_count[%d]" % i, (bounds, _weight),
                    "ranges need ints 2 <= low <= high")
        _check_probability("exit_irregularity", self.exit_irregularity)
        _check_probability("branch_density", self.branch_density)
        _check_probability("call_mix", self.call_mix)
        if not isinstance(self.recursion_depth, int) \
                or self.recursion_depth < 0:
            raise ProfileValidationError(
                "recursion_depth", self.recursion_depth,
                "must be an int >= 0")
        if not isinstance(self.working_set, int) or self.working_set < 4:
            raise ProfileValidationError(
                "working_set", self.working_set,
                "must be an int >= 4 words")
        if not isinstance(self.num_arrays, int) or self.num_arrays < 1:
            raise ProfileValidationError(
                "num_arrays", self.num_arrays, "must be an int >= 1")
        if not isinstance(self.num_nests, int) or self.num_nests < 1:
            raise ProfileValidationError(
                "num_nests", self.num_nests, "must be an int >= 1")
        if not isinstance(self.body_ops, tuple) \
                or len(self.body_ops) != 2 \
                or not all(isinstance(b, int) for b in self.body_ops) \
                or not 1 <= self.body_ops[0] <= self.body_ops[1]:
            raise ProfileValidationError(
                "body_ops", self.body_ops,
                "needs ints 1 <= low <= high")
        if not isinstance(self.target_instructions, int) \
                or self.target_instructions < 1_000:
            raise ProfileValidationError(
                "target_instructions", self.target_instructions,
                "must be an int >= 1000")
        if not isinstance(self.default_max_instructions, int) \
                or self.default_max_instructions \
                < 4 * self.target_instructions:
            raise ProfileValidationError(
                "default_max_instructions", self.default_max_instructions,
                "must be an int >= 4x target_instructions (headroom "
                "over the generator's expected-cost model)")
        if self.category not in ("int", "fp"):
            raise ProfileValidationError(
                "category", self.category, "must be 'int' or 'fp'")

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        """A plain-JSON-types dict that :meth:`from_dict` inverts.

        Weighted distributions become nested lists (JSON has no
        tuples); :meth:`from_dict` restores the tuple shapes, so the
        round trip is exact.
        """
        return {
            "name": self.name,
            "description": self.description,
            "nesting_depth": [[d, w] for d, w in self.nesting_depth],
            "trip_count": [[[lo, hi], w]
                           for (lo, hi), w in self.trip_count],
            "exit_irregularity": self.exit_irregularity,
            "branch_density": self.branch_density,
            "call_mix": self.call_mix,
            "recursion_depth": self.recursion_depth,
            "working_set": self.working_set,
            "num_arrays": self.num_arrays,
            "num_nests": self.num_nests,
            "body_ops": list(self.body_ops),
            "target_instructions": self.target_instructions,
            "default_max_instructions": self.default_max_instructions,
            "category": self.category,
        }

    @classmethod
    def from_dict(cls, payload):
        """The exact inverse of :meth:`to_dict` (validates eagerly);
        raises :class:`ValueError` on malformed payloads."""
        if not isinstance(payload, dict):
            raise ValueError("profile payload must be an object, got %r"
                             % type(payload).__name__)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError("unknown profile field(s): %s"
                             % ", ".join(unknown))
        kwargs = dict(payload)
        try:
            if "nesting_depth" in kwargs:
                kwargs["nesting_depth"] = tuple(
                    (d, w) for d, w in kwargs["nesting_depth"])
            if "trip_count" in kwargs:
                kwargs["trip_count"] = tuple(
                    ((int(lo), int(hi)), w)
                    for (lo, hi), w in kwargs["trip_count"])
            if "body_ops" in kwargs:
                low, high = kwargs["body_ops"]
                kwargs["body_ops"] = (low, high)
        except (TypeError, ValueError) as exc:
            raise ValueError("malformed profile payload: %s" % exc) \
                from None
        return cls(**kwargs)


def profile_digest(profile):
    """Content digest of *profile*'s knobs, ignoring name and
    description.

    Two profiles that shape identical program families digest
    identically however they are labelled; the adversarial search
    names mutated candidates ``cand<digest>`` so every distinct knob
    setting gets exactly one registry name.
    """
    payload = profile.to_dict()
    del payload["name"]
    del payload["description"]
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:12]


#: The built-in profile families; ``synth-<name>-<seed>`` resolves here.
PROFILES = {}


def _profile(**kwargs):
    profile = WorkloadProfile(**kwargs)
    if profile.name in PROFILES:
        raise ValueError("duplicate profile %r" % profile.name)
    PROFILES[profile.name] = profile
    return profile


_profile(
    name="baseline",
    description="moderate everything: the suite's centre of mass",
)

_profile(
    name="deep-nest",
    description="go/apsi-like: deep loop nests with short trips and "
                "bounded recursion",
    nesting_depth=((3, 2), (4, 4), (5, 3), (6, 1)),
    trip_count=(((2, 4), 4), ((5, 9), 3)),
    exit_irregularity=0.3,
    branch_density=0.35,
    call_mix=0.3,
    recursion_depth=4,
    num_nests=3,
    body_ops=(1, 4),
)

_profile(
    name="wide-flat",
    description="swim/tomcatv-like: shallow regular nests with long "
                "trips and dense array traffic",
    nesting_depth=((1, 3), (2, 5)),
    trip_count=(((24, 64), 4), ((80, 200), 2)),
    exit_irregularity=0.02,
    branch_density=0.1,
    call_mix=0.1,
    working_set=512,
    num_arrays=3,
    body_ops=(3, 8),
    category="fp",
)

_profile(
    name="irregular",
    description="gcc-like: branchy bodies, data-dependent early exits, "
                "unpredictable trip counts",
    nesting_depth=((1, 2), (2, 4), (3, 3)),
    trip_count=(((2, 6), 3), ((7, 24), 3), ((30, 90), 1)),
    exit_irregularity=0.6,
    branch_density=0.6,
    call_mix=0.3,
    num_nests=6,
)

_profile(
    name="call-heavy",
    description="li/perl-like: loops feeding helper calls and "
                "recursion; loops stack across frames",
    nesting_depth=((1, 3), (2, 4), (3, 2)),
    trip_count=(((2, 5), 3), ((6, 16), 4)),
    exit_irregularity=0.2,
    branch_density=0.3,
    call_mix=0.75,
    recursion_depth=5,
    num_nests=4,
    body_ops=(1, 4),
)

_profile(
    name="tiny-loops",
    description="m88ksim-like: many nests of tiny trip counts, mostly "
                "single-digit iterations",
    nesting_depth=((1, 4), (2, 4), (3, 1)),
    trip_count=(((2, 4), 5), ((5, 8), 2)),
    exit_irregularity=0.25,
    branch_density=0.4,
    call_mix=0.2,
    num_nests=8,
    body_ops=(1, 3),
)


def get_profile(name):
    """The built-in profile called *name*."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError("unknown profile %r (known: %s)"
                       % (name, ", ".join(sorted(PROFILES)))) from None


def profile_names():
    return sorted(PROFILES)
