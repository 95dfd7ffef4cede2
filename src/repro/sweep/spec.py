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
are *content-keyed* with the trace-cache/derived-store key discipline
(:meth:`repro.pipeline.cache.TraceCache.key` +
:func:`repro.pipeline.derived.derived_key`): the key embeds the
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
from repro.pipeline.derived import derived_cls_key

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


def canonical_timing(spec_str):
    """``(canonical spec string, model-or-None, derived-key part)``.

    All-zero overhead specs collapse onto the ideal model exactly like
    :func:`repro.analysis.passes.effective_timing`, so the cell key --
    and therefore the stored row -- is shared with ideal-machine runs.
    """
    from repro.timing import make_timing

    model = make_timing(spec_str)
    if model.key() == ("ideal",):
        return "ideal", None, None
    return spec_str, model, model.key()


def sim_cell_suffix(tus, policy, timing_key, cls_capacity):
    """The derived-store key of one simulation cell -- byte-for-byte
    the key :func:`repro.analysis.passes.shared_simulate` persists
    under, so sweep cells and direct experiment runs share one cache
    row on disk."""
    if timing_key is None:
        return derived_cls_key(cls_capacity, "simulate", tus, policy)
    return derived_cls_key(cls_capacity, "simulate", tus, policy,
                           timing_key)


def loopstats_cell_suffix(cls_capacity):
    """The key suffix of a per-workload loop-statistics cell --
    byte-for-byte the derived-store key table1's
    :class:`repro.analysis.passes.LoopStatisticsPass` persists its
    ``{stats, coverage}`` under."""
    return derived_cls_key(cls_capacity, "loopstats")


def workload_trace_key(name, scale=1, max_instructions=None):
    """The trace-cache key of *name* at these session coordinates
    (compiles the program to fingerprint it, like the pipeline does)."""
    from repro.workloads import get

    workload = get(name)
    limit = max_instructions or workload.default_max_instructions
    fingerprint = program_fingerprint(workload.program(scale))
    return TraceCache.key(name, scale, limit, fingerprint), limit


def expand_cells(spec):
    """The deterministic cell list of *spec*, in grid order.

    Grid order is workload (spec order), then kind, then the
    experiment's axis order (policy, TUs, spawn cost) -- the exact
    iteration order of the direct experiments, so progress reporting
    and resume behaviour line up with what ``runner sensitivity``
    would compute.
    """
    cells = []
    seen = set()
    for name in spec.workloads:
        trace_key, limit = workload_trace_key(
            name, spec.scale, spec.max_instructions)

        def add(kind, suffix, timing=None, policy=None, tus=None,
                spawn_cost=None):
            key = "%s/%s" % (trace_key, suffix)
            if key in seen:
                return
            seen.add(key)
            cells.append(Cell(
                key=key, workload=name, trace_key=trace_key,
                scale=spec.scale, max_instructions=limit,
                cls_capacity=spec.cls_capacity, kind=kind,
                timing=timing, policy=policy, tus=tus,
                spawn_cost=spawn_cost))

        def add_ideal(policy, tus):
            # figure6/figure7/table2 simulate on the paper's ideal
            # machine only, like the direct experiments they mirror.
            add(KIND_SIM,
                sim_cell_suffix(tus, policy, None, spec.cls_capacity),
                timing="ideal", policy=policy, tus=tus, spawn_cost=0)

        if spec.experiment == "characterize":
            add(KIND_LOOPSTATS,
                loopstats_cell_suffix(spec.cls_capacity))
            # Characterization always simulates on the paper's ideal
            # machine (the direct experiment takes no timing flags).
            for policy in spec.policies:
                add_ideal(policy, spec.num_tus)
        elif spec.experiment == "figure6":
            from repro.experiments.figure6 import POLICY
            for tus in spec.tu_counts:
                add_ideal(POLICY, tus)
        elif spec.experiment == "figure7":
            for policy in spec.policies:
                for tus in spec.tu_counts:
                    add_ideal(policy, tus)
        elif spec.experiment == "table2":
            from repro.experiments.table2 import POLICY
            add_ideal(POLICY, spec.num_tus)
        else:
            for policy in spec.policies:
                for tus in spec.tu_counts:
                    for cost in spec.spawn_costs:
                        timing, _, timing_key = canonical_timing(
                            spec.overhead_spec(cost))
                        add(KIND_SIM,
                            sim_cell_suffix(tus, policy, timing_key,
                                            spec.cls_capacity),
                            timing=timing, policy=policy, tus=tus,
                            spawn_cost=cost)
    return cells
