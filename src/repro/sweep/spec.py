"""Sweep grid specifications and their deterministic cell expansion.

A :class:`SweepSpec` pins one experiment grid completely: the
experiment kind, the workload set, the session coordinates (scale,
CLS capacity, instruction budget), and the experiment's own axes
(:data:`EXPERIMENT_AXES`).  It is frozen, validated eagerly with the
same rules the direct experiments apply, and serializes to canonical
JSON -- the digest of that JSON is the **sweep id**, so resubmitting
the same grid always maps onto the same sweep.

The experiment itself is its analysis
(:meth:`SweepSpec.analysis`): :func:`expand_cells` plans one
:class:`Cell` per simulation the analysis prices per workload (its
``sims``), plus the workload's loop statistics when the analysis
reads them, and the query layer rebuilds the report by running the
same analysis over the stored cells.  Cells are *content-keyed*: a
cell's key is the derived-store key its result is memoized under
(:func:`repro.analysis.passes.memo_key`), joined under the workload's
trace-cache key (:meth:`repro.pipeline.cache.TraceCache.key`).  The
key embeds the workload's program fingerprint, scale, budget, CLS
capacity, and the cell's own parameters, so editing a workload
generator orphans its cells, two sweeps whose grids overlap share the
overlapping cells, and a ``sensitivity`` spawn-cost-0 cell is the
*same row* as the ``characterize`` cell for that policy/TU
configuration.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.analysis.passes import int_axis, policy_axis
from repro.pipeline.cache import TraceCache, program_fingerprint

#: Experiments a sweep can run (the store-backed execution path of the
#: equally named direct experiments), each with the spec fields its
#: analysis is built from -- under constructor keywords of the same
#: names.  All but ``sensitivity`` simulate the ideal machine, so their
#: cells are shared rows with any overlapping grid.
EXPERIMENT_AXES = {
    "sensitivity": ("spawn_costs", "tu_counts", "policies",
                    "squash_cost", "promote_cost"),
    "characterize": ("policies", "num_tus"),
    "figure6": ("tu_counts",),
    "figure7": ("policies", "tu_counts"),
    "table2": ("num_tus",),
}
SWEEP_EXPERIMENTS = tuple(EXPERIMENT_AXES)

#: Cell kinds: a speculation simulation and the per-workload loop
#: statistics (characterize's non-simulation half).
KIND_SIM = "sim"
KIND_LOOPSTATS = "loopstats"


def _make_analysis(experiment, **axes):
    from repro.experiments.runner import EXPERIMENTS

    return EXPERIMENTS[experiment](**axes)


def default_axes(experiment):
    """``axis -> value`` of *experiment*'s own defaults (what its
    direct run uses when no flag overrides them)."""
    analysis = _make_analysis(experiment)
    return {axis: getattr(analysis, axis)
            for axis in EXPERIMENT_AXES[experiment]}


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid, fully pinned.

    ``workloads`` is a tuple of resolved workload names (synthetic
    ``synth-<profile>-<seed>`` names included); order is preserved and
    determines report row order, exactly like the direct experiments.
    Each experiment reads only its own :data:`EXPERIMENT_AXES`; the
    rest are ignored.
    """

    experiment: str
    workloads: Tuple[str, ...]
    scale: int = 1
    cls_capacity: int = 16
    max_instructions: Optional[int] = None
    # sensitivity axes
    spawn_costs: Tuple[int, ...] = (0, 2, 8, 32)
    tu_counts: Tuple[int, ...] = (2, 4, 8, 16)
    policies: Tuple[str, ...] = ("idle", "str", "str(3)")
    squash_cost: int = 0
    promote_cost: int = 0
    # characterize axis
    num_tus: int = 4

    def __post_init__(self):
        if self.experiment not in SWEEP_EXPERIMENTS:
            raise ValueError("unknown sweep experiment %r (known: %s)"
                             % (self.experiment,
                                ", ".join(SWEEP_EXPERIMENTS)))
        workloads = tuple(self.workloads)
        if not workloads:
            raise ValueError("a sweep needs at least one workload")
        object.__setattr__(self, "workloads", workloads)
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.cls_capacity < 1:
            raise ValueError("cls_capacity must be >= 1")
        if self.max_instructions is not None \
                and self.max_instructions < 1:
            raise ValueError("max_instructions must be >= 1")
        object.__setattr__(self, "spawn_costs",
                           int_axis("spawn costs", self.spawn_costs))
        object.__setattr__(self, "tu_counts",
                           int_axis("TU counts", self.tu_counts,
                                    minimum=1))
        object.__setattr__(self, "policies", policy_axis(self.policies))
        if not isinstance(self.num_tus, int) or self.num_tus < 1:
            raise ValueError("num_tus must be an integer >= 1")
        for name in ("squash_cost", "promote_cost"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError("%s must be an integer >= 0" % name)

    # -- serialization -----------------------------------------------------

    def to_json(self):
        """Canonical JSON (sorted keys, no whitespace variance)."""
        payload = {
            "experiment": self.experiment,
            "workloads": list(self.workloads),
            "scale": self.scale,
            "cls_capacity": self.cls_capacity,
            "max_instructions": self.max_instructions,
            "spawn_costs": list(self.spawn_costs),
            "tu_counts": list(self.tu_counts),
            "policies": list(self.policies),
            "squash_cost": self.squash_cost,
            "promote_cost": self.promote_cost,
            "num_tus": self.num_tus,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        """The exact inverse of :meth:`to_json`; raises
        :class:`ValueError` on malformed input."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError("unreadable sweep spec: %s" % exc) from None
        if not isinstance(payload, dict):
            raise ValueError("unreadable sweep spec: not an object")
        try:
            return cls(
                experiment=payload["experiment"],
                workloads=tuple(payload["workloads"]),
                scale=payload["scale"],
                cls_capacity=payload["cls_capacity"],
                max_instructions=payload["max_instructions"],
                spawn_costs=tuple(payload["spawn_costs"]),
                tu_counts=tuple(payload["tu_counts"]),
                policies=tuple(payload["policies"]),
                squash_cost=payload["squash_cost"],
                promote_cost=payload["promote_cost"],
                num_tus=payload["num_tus"],
            )
        except (KeyError, TypeError) as exc:
            raise ValueError("unreadable sweep spec: %s" % exc) from None

    @property
    def sweep_id(self):
        """Content digest of the grid: same spec, same id, always."""
        digest = hashlib.sha256(self.to_json().encode("ascii"))
        return digest.hexdigest()[:16]

    def analysis(self):
        """A fresh instance of the experiment's analysis class (the
        runner's :data:`~repro.experiments.runner.EXPERIMENTS` entry),
        built from this spec's axes: the one description of what the
        sweep prices and how its report renders."""
        return _make_analysis(
            self.experiment, **{axis: getattr(self, axis)
                                for axis in EXPERIMENT_AXES[
                                    self.experiment]})


@dataclass(frozen=True)
class Cell:
    """One unit of sweep work, content-keyed.

    ``key`` is globally unique across sweeps: the workload's trace-cache
    key, the CLS capacity, and the cell parameters in derived-store key
    form.  ``timing`` is the canonical timing spec string (``"ideal"``
    for free speculation); ``policy``/``tus`` are ``None`` for
    non-simulation kinds.
    """

    key: str
    workload: str
    trace_key: str
    scale: int
    max_instructions: int
    cls_capacity: int
    kind: str
    timing: Optional[str] = None
    policy: Optional[str] = None
    tus: Optional[int] = None
    spawn_cost: Optional[int] = field(default=None, compare=False)


def workload_trace_key(name, scale=1, max_instructions=None):
    """The trace-cache key of *name* at these session coordinates
    (compiles the program to fingerprint it, like the pipeline does)."""
    from repro.workloads import get

    workload = get(name)
    limit = max_instructions or workload.default_max_instructions
    fingerprint = program_fingerprint(workload.program(scale))
    return TraceCache.key(name, scale, limit, fingerprint), limit


def add_workload_cells(cells, seen, name, scale, max_instructions,
                       cls_capacity, sims, loopstats=False):
    """Append workload *name*'s cells to *cells*, skipping keys already
    in *seen* (and adding the new ones to it).

    The workload's loop-statistics cell comes first when *loopstats*,
    then one simulation cell per ``(policy, tus, timing, spawn_cost)``
    of *sims* -- *timing* a :func:`repro.timing.make_timing` spec
    string, or ``None`` for the ideal machine (the session default of
    a sweep).  A timing that collapses onto the ideal machine (an
    all-zero overhead model) becomes the ``"ideal"`` cell, the same
    row as every ideal-machine run of that policy and TU count.
    """
    from repro.analysis.passes import LOOPSTATS_PARTS, memo_key, \
        simulate_parts
    from repro.timing import make_timing

    trace_key, limit = workload_trace_key(name, scale, max_instructions)

    def add(kind, parts, **fields):
        key = "%s/%s" % (trace_key, memo_key(cls_capacity, parts))
        if key not in seen:
            seen.add(key)
            cells.append(Cell(
                key=key, workload=name, trace_key=trace_key,
                scale=scale, max_instructions=limit,
                cls_capacity=cls_capacity, kind=kind, **fields))

    if loopstats:
        add(KIND_LOOPSTATS, LOOPSTATS_PARTS)
    for policy, tus, timing, spawn_cost in sims:
        parts = simulate_parts(tus, policy, make_timing(timing))
        if parts == simulate_parts(tus, policy):
            timing = "ideal"
        add(KIND_SIM, parts, timing=timing, policy=policy, tus=tus,
            spawn_cost=spawn_cost)


def expand_cells(spec):
    """The deterministic cell list of *spec*, in grid order.

    Grid order is workload (spec order), then kind, then the order of
    the analysis's ``sims`` -- the exact order the direct experiment
    prices them in, so progress reporting and resume behaviour line up
    with what the direct run would compute.
    """
    analysis = spec.analysis()
    cells = []
    seen = set()
    for name in spec.workloads:
        add_workload_cells(cells, seen, name, spec.scale,
                           spec.max_instructions, spec.cls_capacity,
                           analysis.sims, loopstats=analysis.loopstats)
    return cells
