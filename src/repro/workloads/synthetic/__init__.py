"""Parametric synthetic workloads: ``synth-<profile>-<seed>``.

The 18 hand-written analogs pin the paper's Table 1 rows; this package
*explores the space around them*.  A :class:`WorkloadProfile` describes
a family of loop behaviours (nesting, trip counts, irregularity,
branches, calls/recursion, working set) and the seeded generator draws
concrete deterministic programs from it.  Generated workloads are
ordinary :class:`~repro.workloads.base.Workload` objects registered
under ``synth-<profile>-<seed>``, so the pipeline, trace cache, and
analysis suite consume them unchanged::

    from repro.workloads import get
    w = get("synth-deep-nest-7")        # resolved + registered lazily
    program = w.program()

Name resolution is deterministic and side-effect free beyond registry
insertion, so pooled tracer processes resolve the same names to
byte-identical programs (``--jobs`` works for synthetic sweeps too).
``runner characterize --profile P --seed S --count N`` sweeps the
family ``synth-P-S .. synth-P-(S+N-1)`` (see ``docs/WORKLOADS.md``).
"""

from repro.workloads.base import Workload, register_workload
from repro.workloads.synthetic.generator import generate_module
from repro.workloads.synthetic.mutate import (
    as_candidate,
    mutate_profile,
    random_profile,
)
from repro.workloads.synthetic.profile import (
    PROFILES,
    ProfileValidationError,
    WorkloadProfile,
    get_profile,
    profile_digest,
    profile_names,
)

#: Every synthetic workload name starts with this.
SYNTH_PREFIX = "synth-"


def synthetic_name(profile, seed):
    """The registry name of the ``(profile, seed)`` workload."""
    name = profile if isinstance(profile, str) else profile.name
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    return "%s%s-%d" % (SYNTH_PREFIX, name, seed)


def parse_synthetic_name(name):
    """``synth-<profile>-<seed>`` -> ``(profile_name, seed)``.

    Raises :class:`ValueError` when *name* is not a synthetic workload
    name (profile names may themselves contain dashes; the seed is the
    final dash-separated integer).
    """
    if not name.startswith(SYNTH_PREFIX):
        raise ValueError("not a synthetic workload name: %r" % name)
    rest = name[len(SYNTH_PREFIX):]
    profile_name, _, seed_text = rest.rpartition("-")
    if not profile_name or not seed_text.isdigit():
        raise ValueError(
            "synthetic names look like synth-<profile>-<seed>, got %r"
            % name)
    return profile_name, int(seed_text)


def make_workload(profile, seed):
    """An *unregistered* :class:`Workload` for ``(profile, seed)``."""
    if isinstance(profile, str):
        profile = get_profile(profile)
    name = synthetic_name(profile, seed)

    def builder(scale):
        return generate_module(profile, seed, scale)

    return Workload(
        name, builder,
        "generated from profile %r (seed %d): %s"
        % (profile.name, seed, profile.description),
        profile.category,
        default_max_instructions=profile.default_max_instructions)


def resolve_synthetic(name):
    """Resolve and register *name* (``synth-<profile>-<seed>``).

    The :func:`~repro.workloads.base.get` fallback: raises
    :class:`KeyError` for unknown profiles so lookup errors stay
    KeyErrors throughout the registry.
    """
    try:
        profile_name, seed = parse_synthetic_name(name)
    except ValueError as exc:
        raise KeyError(str(exc)) from None
    profile = get_profile(profile_name)     # KeyError on unknown profile
    return register_workload(make_workload(profile, seed))


def ensure_profile_workload(profile, seed):
    """Register (idempotently) the ``(profile, seed)`` workload and
    return its name.

    The adversarial search's registration path: candidate profiles are
    *not* in :data:`PROFILES`, so their ``synth-<name>-<seed>`` names
    only resolve inside a process that called this.  Re-registration
    under the same name hands back the already-registered workload --
    candidate names are content digests, so one name can only ever
    mean one program family.
    """
    from repro.workloads.base import get

    name = synthetic_name(profile, seed)
    try:
        return get(name).name
    except KeyError:
        pass
    register_workload(make_workload(profile, seed))
    return name


def sweep_names(profile_name, seed, count):
    """The *count* consecutive-seed names of one characterization
    sweep: ``synth-<profile>-<seed> .. synth-<profile>-<seed+count-1>``."""
    get_profile(profile_name)               # validate eagerly
    if seed < 0:
        raise ValueError("seed must be >= 0, got %d" % seed)
    if count < 1:
        raise ValueError("count must be >= 1")
    return [synthetic_name(profile_name, seed + i) for i in range(count)]


__all__ = [
    "PROFILES",
    "ProfileValidationError",
    "SYNTH_PREFIX",
    "WorkloadProfile",
    "as_candidate",
    "ensure_profile_workload",
    "generate_module",
    "get_profile",
    "make_workload",
    "mutate_profile",
    "parse_synthetic_name",
    "profile_digest",
    "profile_names",
    "random_profile",
    "resolve_synthetic",
    "sweep_names",
    "synthetic_name",
]
