"""Candidate evaluation: one profile+seed through the whole pipeline.

:func:`evaluate_candidate` registers the candidate as an ordinary
synthetic workload for the length of its evaluation, expands the
evaluation into content-keyed cells through the sweep subsystem's own
cell helper (:func:`~repro.sweep.spec.add_workload_cells`), restores
whatever the sweep store already holds, and executes only the missing
cells through the sweep orchestrator's own per-workload worker
(:func:`~repro.sweep.orchestrator.run_workload_cells`).  The search is
therefore a new *front end* on the sweep machinery, not a parallel
evaluation stack: a candidate the store has seen (in a previous search
or a sweep whose keys overlap) costs zero simulation work, and one
whose workload cannot be traced or indexed fails as sweep cells do
(``failed`` rows, retried on resubmission).  Once the candidate's
cells are committed (or its evaluation raised) it leaves the registry
again, compiled program included, so a search holds one candidate's
program at a time however large its budget.

Each result is persisted exactly once.  With a sweep store, the store
is the search's only memo: the missing cells are priced from an
in-memory trace, and nothing lands in the trace cache, its loop
indexes or the derived store -- a candidate's name is a content
digest registered only for its evaluation, so no later run would read
those files back.  Without a store (``--no-store``) the trace cache
and derived store under *cache_dir* are the only memo, so they are
kept.

Every candidate is priced into one uniform metrics bundle
(:class:`CandidateMetrics`): loop statistics + coverage, and one
simulation per evaluated policy under both the ideal machine and the
settings' overhead timing model.  All objectives read from that bundle,
so cells are shared across objectives too.
"""

import json

from repro.sweep.spec import KIND_LOOPSTATS, add_workload_cells
from repro.sweep.store import CELL_FIELDS

#: The two timing legs every policy is simulated under.
LEG_IDEAL = "ideal"
LEG_OVERHEAD = "overhead"

#: The sim-metric fields pinned per (policy, leg).
SIM_FIELDS = ("tpc", "speedup", "hit_ratio", "overhead_cycles")


class CandidateMetrics:
    """The uniform metrics bundle of one evaluated candidate.

    ``coverage`` is the detector's loop coverage; ``sims`` maps
    ``(policy, leg)`` -- leg :data:`LEG_IDEAL` or :data:`LEG_OVERHEAD`
    -- to a dict of :data:`SIM_FIELDS`.  When the settings' timing
    model canonicalizes to ideal both legs alias the same simulation.
    """

    __slots__ = ("name", "coverage", "total_instructions", "sims")

    def __init__(self, name, coverage, total_instructions, sims):
        self.name = name
        self.coverage = coverage
        self.total_instructions = total_instructions
        self.sims = sims

    def sim(self, policy, leg):
        """The :data:`SIM_FIELDS` dict of one ``(policy, leg)``."""
        return self.sims[(policy, leg)]

    def to_dict(self):
        """JSON-ready form (corpus pinning); keys become
        ``"<policy>@<leg>"`` strings."""
        return {
            "coverage": self.coverage,
            "total_instructions": self.total_instructions,
            "sims": {"%s@%s" % key: dict(value)
                     for key, value in sorted(self.sims.items())},
        }

    @classmethod
    def from_dict(cls, name, payload):
        """The inverse of :meth:`to_dict`."""
        try:
            sims = {}
            for label, value in payload["sims"].items():
                policy, _, leg = label.rpartition("@")
                sims[(policy, leg)] = {f: value[f] for f in SIM_FIELDS}
            return cls(name, payload["coverage"],
                       payload["total_instructions"], sims)
        except (KeyError, TypeError) as exc:
            raise ValueError("unreadable metrics payload: %s" % exc) \
                from None


class EvalOutcome:
    """What evaluating one candidate produced.

    ``metrics`` is ``None`` when any cell failed (``error`` says why);
    ``executed``/``restored`` count cells computed this call vs handed
    back by the store -- the resume tests assert on exactly these.
    """

    __slots__ = ("name", "metrics", "executed", "restored", "error",
                 "cell_keys")

    def __init__(self, name, metrics, executed, restored, error,
                 cell_keys):
        self.name = name
        self.metrics = metrics
        self.executed = executed
        self.restored = restored
        self.error = error
        self.cell_keys = cell_keys


def candidate_cells(name, settings):
    """The candidate's cell list: loopstats + per-policy sims under
    the ideal and overhead legs, deduplicated by content key."""
    sims = []
    for policy in settings.policies:
        sims.append((policy, settings.tus, "ideal", None))
        sims.append((policy, settings.tus, settings.timing, None))
    cells = []
    add_workload_cells(cells, set(), name, settings.scale,
                       settings.max_instructions, settings.cls_capacity,
                       sims, loopstats=True)
    return cells


class CandidatePlan:
    """The parent-side half of one evaluation: the candidate's cell
    list, the rows the store already held, and the cells still to
    compute.

    :func:`plan_candidate` builds it, :func:`evaluate_candidate`
    computes ``missing`` through :func:`~repro.sweep.orchestrator.
    run_workload_cells`, and :func:`finish_candidate` commits the
    fresh rows and assembles the :class:`EvalOutcome` -- keeping the
    store I/O apart from the simulation work.
    """

    __slots__ = ("name", "cells", "keys", "rows", "missing")

    def __init__(self, name, cells, rows, missing):
        self.name = name
        self.cells = cells
        self.keys = [cell.key for cell in cells]
        self.rows = rows
        self.missing = missing


def plan_candidate(name, settings, store=None):
    """Expand candidate *name* into cells and restore what *store*
    already holds; returns a :class:`CandidatePlan`, its ``rows``
    keyed by cell key in the worker's row form."""
    cells = candidate_cells(name, settings)
    done = (store.done_keys([cell.key for cell in cells])
            if store is not None else set())
    rows = {}
    if done:
        for row in store.get_cells(cell_keys=sorted(done)):
            rows[row.cell_key] = {f: getattr(row, f) for f in CELL_FIELDS}
    missing = [cell for cell in cells if cell.key not in done]
    return CandidatePlan(name, cells, rows, missing)


def finish_candidate(plan, rows, store=None, sweep=None):
    """Commit the fresh *rows* of ``plan.missing`` -- with the plan's
    cells as members of the *sweep* spec, when one is given, in the
    same transaction -- and price the metrics bundle from them and the
    restored rows; returns the :class:`EvalOutcome`."""
    if store is not None:
        store.put_cells(rows, sweep=None if sweep is None
                        else (sweep, plan.keys))
    by_key = dict(plan.rows)
    by_key.update((row["cell_key"], row) for row in rows)
    metrics, error = _priced(plan.name, plan.cells, by_key)
    return EvalOutcome(plan.name, metrics, len(plan.missing),
                       len(plan.cells) - len(plan.missing), error,
                       plan.keys)


def _priced(name, cells, rows):
    """``(CandidateMetrics, None)`` from the *rows* (by cell key) of
    candidate *name*'s *cells*, or ``(None, error)``."""
    from repro.analysis.passes import loopstats_from_state

    for cell in cells:
        row = rows.get(cell.key)
        if row is None or row["status"] != "done":
            return None, row["error"] if row else "cell missing"
    sims = {}
    for cell in cells:
        row = rows[cell.key]
        if cell.kind == KIND_LOOPSTATS:
            try:
                stats, coverage = loopstats_from_state(
                    json.loads(row["detail"]))
            except (KeyError, TypeError, ValueError):
                return None, "unreadable loopstats cell"
        else:
            value = {f: row[f] for f in SIM_FIELDS}
            if cell.timing == "ideal":
                # An overhead timing that collapses onto the ideal
                # machine has no cell of its own: both legs alias.
                sims[(cell.policy, LEG_IDEAL)] = value
                sims.setdefault((cell.policy, LEG_OVERHEAD), value)
            else:
                sims[(cell.policy, LEG_OVERHEAD)] = value
    return CandidateMetrics(name, coverage, stats.total_instructions,
                            sims), None


def evaluate_candidate(profile, gen_seed, settings, store=None,
                       cache_dir=None, sweep=None):
    """Evaluate ``(profile, gen_seed)`` at *settings*; returns an
    :class:`EvalOutcome`.

    With a *store*, already-done cells are restored instead of
    recomputed and fresh results are checkpointed back before this
    returns, together with the candidate's membership in the *sweep*
    spec (the search's) when one is given: one committed transaction,
    so interrupting a search after any candidate loses nothing and
    never leaves cells without their membership.  The missing cells
    are then priced without a trace cache: *cache_dir* is ignored, so
    the store holds the candidate's only copy.  Without a store, the
    cells are priced through the trace cache and derived store under
    *cache_dir* (when given), which then serve a rerun; with neither,
    every cell computes fresh (the golden frontier tests run this
    way).  The candidate's workload is registered only inside this
    call (:func:`~repro.workloads.base.scoped_registry`).
    """
    from repro.sweep.orchestrator import run_workload_cells
    from repro.workloads.base import scoped_registry
    from repro.workloads.synthetic import ensure_profile_workload

    with scoped_registry():
        name = ensure_profile_workload(profile, gen_seed)
        plan = plan_candidate(name, settings, store)
        rows = (run_workload_cells(
            plan.missing, cache_dir if store is None else None)
            if plan.missing else [])
        return finish_candidate(plan, rows, store, sweep)
