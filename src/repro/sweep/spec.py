"""Sweep grid specifications and their deterministic cell expansion.

A :class:`SweepSpec` pins one experiment grid completely: the
experiment kind, the workload set, the session coordinates (scale,
CLS capacity, instruction budget), and the experiment's own axes
(spawn costs x TU counts x policies for ``sensitivity``; policies at a
fixed TU count plus per-workload loop statistics for ``characterize``).
It is frozen, validated eagerly with the same rules the direct
experiments apply, and serializes to canonical JSON -- the digest of
that JSON is the **sweep id**, so resubmitting the same grid always
maps onto the same sweep.

:func:`expand_cells` turns a spec into its :class:`Cell` list.  Cells
are *content-keyed*: a cell's key is the derived-store key its result
is memoized under (:func:`repro.analysis.passes.memo_key`), joined
under the workload's trace-cache key
(:meth:`repro.pipeline.cache.TraceCache.key`).  The key embeds the
workload's program fingerprint, scale, budget, CLS capacity, and the
cell's own parameters, so editing a workload generator orphans its
cells, two sweeps whose grids overlap share the overlapping cells, and
a ``sensitivity`` spawn-cost-0 cell is the *same row* as the
``characterize`` cell for that policy/TU configuration.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.pipeline.cache import TraceCache, program_fingerprint

#: Experiments a sweep can run (the store-backed execution path of the
#: equally named direct experiments).  ``figure6`` sweeps the STR
#: policy over ``tu_counts``, ``figure7`` sweeps ``policies`` x
#: ``tu_counts``, and ``table2`` runs the paper's STR(3) configuration
#: at ``num_tus`` -- all on the ideal machine, exactly like the direct
#: experiments, so their cells are shared rows with any overlapping
#: sensitivity/characterize grid.
SWEEP_EXPERIMENTS = ("sensitivity", "characterize", "figure6",
                     "figure7", "table2")

#: Cell kinds: a speculation simulation and the per-workload loop
#: statistics (characterize's non-simulation half).
KIND_SIM = "sim"
KIND_LOOPSTATS = "loopstats"


def _int_tuple(name, values, minimum=0):
    """Sorted, de-duplicated integer axis (the direct sensitivity
    experiment's normalization, so grids match cell-for-cell)."""
    values = tuple(values)
    if not values:
        raise ValueError("%s must name at least one value" % name)
    for value in values:
        if not isinstance(value, int) or value < minimum:
            raise ValueError("%s values must be integers >= %d, got %r"
                             % (name, minimum, value))
    return tuple(sorted(set(values)))


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid, fully pinned.

    ``workloads`` is a tuple of resolved workload names (synthetic
    ``synth-<profile>-<seed>`` names included); order is preserved and
    determines report row order, exactly like the direct experiments.
    Each experiment reads only its own axes: ``characterize`` uses
    ``policies``/``num_tus``, ``figure6`` uses ``tu_counts`` (its
    policy is fixed to STR), ``figure7`` uses ``policies`` x
    ``tu_counts``, ``table2`` uses ``num_tus`` (policy fixed to
    STR(3)), and the spawn/squash/promote costs belong to
    ``sensitivity`` alone; the rest are ignored.
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
                           _int_tuple("spawn costs", self.spawn_costs))
        object.__setattr__(self, "tu_counts",
                           _int_tuple("TU counts", self.tu_counts,
                                      minimum=1))
        policies = tuple(self.policies)
        if not policies:
            raise ValueError("policies must name at least one policy")
        from repro.core.speculation import make_policy
        for policy in policies:
            make_policy(policy)     # ValueError on unknown policies
        object.__setattr__(self, "policies", policies)
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

    # -- axes --------------------------------------------------------------

    def overhead_spec(self, spawn_cost):
        """The timing spec string of one spawn-cost point (the exact
        string the direct sensitivity experiment builds; all-zero
        costs canonicalize to the ideal model downstream)."""
        return ("overhead:spawn=%d,squash=%d,promote=%d"
                % (spawn_cost, self.squash_cost, self.promote_cost))


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
    string.  A timing that collapses onto the ideal machine (an
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

    Grid order is workload (spec order), then kind, then the
    experiment's axis order (policy, TUs, spawn cost) -- the exact
    iteration order of the direct experiments, so progress reporting
    and resume behaviour line up with what ``runner sensitivity``
    would compute.  figure6/figure7/table2 and characterize simulate
    on the paper's ideal machine only, like the direct experiments
    they mirror.
    """
    if spec.experiment == "characterize":
        sims = [(policy, spec.num_tus, "ideal", 0)
                for policy in spec.policies]
    elif spec.experiment == "figure6":
        from repro.experiments.figure6 import POLICY
        sims = [(POLICY, tus, "ideal", 0) for tus in spec.tu_counts]
    elif spec.experiment == "figure7":
        sims = [(policy, tus, "ideal", 0) for policy in spec.policies
                for tus in spec.tu_counts]
    elif spec.experiment == "table2":
        from repro.experiments.table2 import POLICY
        sims = [(POLICY, spec.num_tus, "ideal", 0)]
    else:
        sims = [(policy, tus, spec.overhead_spec(cost), cost)
                for policy in spec.policies for tus in spec.tu_counts
                for cost in spec.spawn_costs]
    cells = []
    seen = set()
    for name in spec.workloads:
        add_workload_cells(cells, seen, name, spec.scale,
                           spec.max_instructions, spec.cls_capacity,
                           sims,
                           loopstats=spec.experiment == "characterize")
    return cells
