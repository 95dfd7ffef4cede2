"""Search run specifications: the grid analog for adversarial search.

A :class:`SearchSpec` pins one search completely -- the objective, the
evaluation settings, the candidate budget, the RNG seed, and the hill
climber's shape parameters.  Like a sweep grid
(:class:`~repro.sweep.spec.SweepSpec`) it serializes to canonical JSON
whose digest is the **search id**: resubmitting the same command line
maps onto the same stored run, which is what makes
resume-by-resubmission work -- the trajectory is a pure function of
the spec, so a rerun revisits the same candidates and the sweep store
hands back every cell it already holds.

Search runs are recorded in the sweep store's ``sweeps`` table under
``experiment = "search"`` so their cells are never pruned as orphans;
:meth:`~repro.sweep.store.SweepStore.spec_for` refuses to hand them to
``runner sweep --resume`` (resume a search by resubmitting ``runner
search`` with the same flags instead).
"""

import hashlib
import json
from dataclasses import dataclass, field

from repro.search.objectives import EvalSettings, get_objective

#: The ``sweeps``-table experiment tag of search runs.
SEARCH_EXPERIMENT = "search"


@dataclass(frozen=True)
class SearchSpec:
    """One fully pinned search run."""

    objective: str
    budget: int = 200
    seed: int = 1
    top_k: int = 5
    #: consecutive rejected moves before a random restart
    stall_limit: int = 6
    settings: EvalSettings = field(default_factory=EvalSettings)

    def __post_init__(self):
        objective = get_objective(self.objective)   # KeyError if unknown
        if not isinstance(self.budget, int) or self.budget < 1:
            raise ValueError("budget must be an integer >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not isinstance(self.top_k, int) or self.top_k < 1:
            raise ValueError("top_k must be an integer >= 1")
        if not isinstance(self.stall_limit, int) or self.stall_limit < 1:
            raise ValueError("stall_limit must be an integer >= 1")
        objective.validate(self.settings)

    #: duck-compat with SweepSpec for SweepStore.record_sweep/put_cells
    @property
    def experiment(self):
        return SEARCH_EXPERIMENT

    def to_json(self):
        """Canonical JSON (sorted keys, no whitespace variance)."""
        payload = {
            "experiment": SEARCH_EXPERIMENT,
            "objective": self.objective,
            "budget": self.budget,
            "seed": self.seed,
            "top_k": self.top_k,
            "stall_limit": self.stall_limit,
            "settings": self.settings.to_dict(),
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))

    @property
    def sweep_id(self):
        """Content digest of the run: same spec, same id, always."""
        digest = hashlib.sha256(self.to_json().encode("ascii"))
        return digest.hexdigest()[:16]
