"""Candidate evaluation: one profile+seed through the whole pipeline.

:func:`evaluate_candidate` registers the candidate as an ordinary
synthetic workload, expands the evaluation into content-keyed cells
through the sweep subsystem's own cell helper
(:func:`~repro.sweep.spec.add_workload_cells`), restores whatever
the sweep store already holds, and executes only the missing cells
through the sweep orchestrator's own per-workload worker
(:func:`~repro.sweep.orchestrator.run_workload_cells`) -- trace cache
and derived store included.  The search is therefore a new *front end*
on the PR 1-7 machinery, not a parallel evaluation stack: a candidate
the store has seen (in a previous search, a sweep, or a direct run
whose keys overlap) costs zero simulation work.

Every candidate is priced into one uniform metrics bundle
(:class:`CandidateMetrics`): loop statistics + coverage, and one
simulation per evaluated policy under both the ideal machine and the
settings' overhead timing model.  All objectives read from that bundle,
so cells are shared across objectives too.
"""

import json

from repro.sweep.spec import KIND_LOOPSTATS, add_workload_cells

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


def _row_facts(status, tpc, speedup, hit_ratio, overhead_cycles,
               detail, error):
    return {"status": status, "tpc": tpc, "speedup": speedup,
            "hit_ratio": hit_ratio, "overhead_cycles": overhead_cycles,
            "detail": detail, "error": error}


class CandidatePlan:
    """The parent-side half of one evaluation: the candidate's cell
    list, the facts the store already held, and the cells still to
    compute.

    :func:`plan_candidate` builds it, :func:`evaluate_candidate`
    computes ``missing`` through :func:`~repro.sweep.orchestrator.
    run_workload_cells`, and :func:`finish_candidate` merges the rows
    back, commits them, and assembles the :class:`EvalOutcome` --
    keeping the store I/O apart from the simulation work.
    """

    __slots__ = ("name", "cells", "keys", "facts", "missing",
                 "restored")

    def __init__(self, name, cells, facts, missing, restored):
        self.name = name
        self.cells = cells
        self.keys = [cell.key for cell in cells]
        self.facts = facts
        self.missing = missing
        self.restored = restored


def plan_candidate(name, settings, store=None):
    """Expand candidate *name* into cells and restore what *store*
    already holds; returns a :class:`CandidatePlan`."""
    cells = candidate_cells(name, settings)
    keys = [cell.key for cell in cells]
    done = store.done_keys(keys) if store is not None else set()
    facts = {}
    if done:
        for row in store.get_cells(cell_keys=sorted(done)):
            facts[row.cell_key] = _row_facts(
                row.status, row.tpc, row.speedup, row.hit_ratio,
                row.overhead_cycles, row.detail, row.error)
    missing = [cell for cell in cells if cell.key not in done]
    return CandidatePlan(name, cells, facts, missing, len(done))


def finish_candidate(plan, rows, store=None, sweep=None):
    """Merge the computed *rows* of ``plan.missing`` into the plan's
    facts, commit them -- with the plan's cells as members of the
    *sweep* spec, when one is given, in the same transaction -- and
    price the metrics bundle; returns the :class:`EvalOutcome`."""
    from repro.analysis.passes import loopstats_from_state
    from repro.sweep.orchestrator import base_row

    name = plan.name
    facts = plan.facts
    by_key = {cell.key: cell for cell in plan.cells}
    stored = []
    for partial in rows:
        base = base_row(by_key[partial["cell_key"]])
        base.update(partial)
        stored.append(base)
        facts[partial["cell_key"]] = _row_facts(
            partial["status"], partial["tpc"], partial["speedup"],
            partial["hit_ratio"], partial["overhead_cycles"],
            partial["detail"], partial["error"])
    if store is not None:
        store.put_cells(stored, sweep=None if sweep is None
                        else (sweep, plan.keys))

    failed = [key for key in plan.keys
              if facts.get(key, {}).get("status") != "done"]
    if failed:
        first = facts.get(failed[0], {})
        return EvalOutcome(name, None, len(plan.missing),
                           plan.restored,
                           first.get("error") or "cell missing",
                           plan.keys)

    sims = {}
    for cell in plan.cells:
        fact = facts[cell.key]
        if cell.kind == KIND_LOOPSTATS:
            try:
                stats, coverage = loopstats_from_state(
                    json.loads(fact["detail"]))
            except (KeyError, TypeError, ValueError):
                return EvalOutcome(name, None, len(plan.missing),
                                   plan.restored,
                                   "unreadable loopstats cell",
                                   plan.keys)
        else:
            value = {f: fact[f] for f in SIM_FIELDS}
            if cell.timing == "ideal":
                # An overhead timing that collapses onto the ideal
                # machine has no cell of its own: both legs alias.
                sims[(cell.policy, LEG_IDEAL)] = value
                sims.setdefault((cell.policy, LEG_OVERHEAD), value)
            else:
                sims[(cell.policy, LEG_OVERHEAD)] = value
    metrics = CandidateMetrics(name, coverage, stats.total_instructions,
                               sims)
    return EvalOutcome(name, metrics, len(plan.missing),
                       plan.restored, None, plan.keys)


def evaluate_candidate(profile, gen_seed, settings, store=None,
                       cache_dir=None, sweep=None):
    """Evaluate ``(profile, gen_seed)`` at *settings*; returns an
    :class:`EvalOutcome`.

    With a *store*, already-done cells are restored instead of
    recomputed and fresh results are checkpointed back before this
    returns, together with the candidate's membership in the *sweep*
    spec (the search's) when one is given: one committed transaction,
    so interrupting a search after any candidate loses nothing and
    never leaves cells without their membership.  Without a store,
    every cell computes fresh (the golden frontier tests run this
    way).
    """
    from repro.sweep.orchestrator import cell_descriptor, \
        run_workload_cells
    from repro.workloads.synthetic import ensure_profile_workload

    name = ensure_profile_workload(profile, gen_seed)
    plan = plan_candidate(name, settings, store)
    rows = []
    if plan.missing:
        _, rows = run_workload_cells(
            name, settings.scale, settings.max_instructions,
            settings.cls_capacity, cache_dir,
            [cell_descriptor(cell) for cell in plan.missing])
    return finish_candidate(plan, rows, store, sweep)
