"""The search loop: deterministic random-restart hill climbing.

The climber walks the synthetic profile space one candidate at a time:
mutate the current ``(profile, generator seed)`` state, evaluate the
candidate through the pipeline (:func:`~repro.search.evaluate.
evaluate_candidate`), accept on strict score improvement, and restart
from a fresh random point after :attr:`~repro.search.spec.SearchSpec.
stall_limit` consecutive rejections.  Every random draw -- restart
point, move choice, knob jitter, seed perturbation -- comes from one
:class:`~repro.util.rng.Xorshift64` seeded from the spec, and every
score is a deterministic function of the candidate, so the whole
trajectory is a pure function of the spec: two cold runs of the same
``runner search`` command produce identical winner lists.

That purity is also the resume story.  A rerun of an interrupted
search revisits the same candidates in the same order; the sweep store
hands back every cell the interrupted run checkpointed, so only the
missing candidates execute (:class:`SearchStats` counts restored vs
executed cells -- the resume tests assert the second run's
``executed_cells`` is exactly the shortfall).
"""

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.obs import collector as obs
from repro.search.evaluate import evaluate_candidate
from repro.search.objectives import get_objective
from repro.util.rng import Xorshift64

#: Probability weights of the move kinds, in tenths: a move perturbs
#: the generator seed with probability 2/10, otherwise the profile.
SEED_MOVE_TENTHS = 2

#: Generator seeds are drawn from this inclusive range.
SEED_RANGE = (1, 1 << 30)


@dataclass(frozen=True)
class Winner:
    """One promoted candidate: everything the corpus needs to pin."""

    name: str
    profile: object
    gen_seed: int
    score: float
    frontier: bool
    metrics: object
    eval_index: int


@dataclass
class SearchStats:
    """Bookkeeping of one :func:`run_search` run."""

    evaluated: int = 0
    memo_hits: int = 0
    failures: int = 0
    accepted: int = 0
    restarts: int = 0
    executed_cells: int = 0
    restored_cells: int = 0
    best_score: Optional[float] = None


def _loop_seed(spec):
    """The RNG seed of *spec*'s trajectory: the user seed mixed with
    the objective name, so ``--seed 7`` walks *different* trajectories
    under different objectives (they hunt different frontiers) while
    staying a pure function of the spec."""
    tag = hashlib.sha256(spec.objective.encode("ascii")).digest()
    return (spec.seed + 1) * 0x9E3779B97F4A7C15 \
        ^ int.from_bytes(tag[:8], "big")


def _restart(rng):
    """A fresh starting point: a uniformly sampled profile most of the
    time, a mutated built-in profile otherwise (keeps the walk
    anchored near the paper's suite without depending on it)."""
    from repro.workloads.synthetic import PROFILES, as_candidate, \
        mutate_profile, random_profile

    gen_seed = rng.randint(*SEED_RANGE)
    if rng.randint(0, 3) == 0:
        names = sorted(PROFILES)
        base = PROFILES[names[rng.randint(0, len(names) - 1)]]
        return mutate_profile(as_candidate(base), rng, moves=2), \
            gen_seed
    return random_profile(rng), gen_seed


def _move(rng, profile, gen_seed):
    """One neighbourhood step from ``(profile, gen_seed)``."""
    from repro.workloads.synthetic import mutate_profile

    if rng.randint(0, 9) < SEED_MOVE_TENTHS:
        return profile, rng.randint(*SEED_RANGE)
    return mutate_profile(profile, rng), gen_seed


def run_search(spec, store=None, cache_dir=None, progress=None):
    """Run *spec*'s search; returns ``(winners, stats)``.

    ``winners`` is the deduplicated top-``spec.top_k`` candidate list,
    best first (ties broken by discovery order).  *store* is a
    :class:`~repro.sweep.store.SweepStore` used both as the resume
    checkpoint and as a cross-run result cache; *progress*, when
    given, is called as ``progress(index, outcome, score)`` after
    every evaluation (an exception it raises aborts the search --
    the fault-injection tests interrupt runs this way).
    """
    objective = get_objective(spec.objective)
    rng = Xorshift64(_loop_seed(spec))
    stats = SearchStats()
    memo = {}       # (profile name, gen seed) -> (score, Winner)
    best = {}       # candidate name -> Winner
    if store is not None:
        store.record_sweep(spec, ())

    profile, gen_seed = _restart(rng)
    accepted = None     # the state moves are proposed from
    current_score = None
    stall = 0

    for index in range(spec.budget):
        memo_key = (profile.name, gen_seed)
        if memo_key in memo:
            stats.memo_hits += 1
            obs.add("search.memo_hits")
            score, winner = memo[memo_key]
        else:
            with obs.span("search.evaluate", candidate=profile.name,
                          index=index):
                outcome = evaluate_candidate(profile, gen_seed,
                                             spec.settings, store=store,
                                             cache_dir=cache_dir,
                                             sweep=spec)
            stats.evaluated += 1
            stats.executed_cells += outcome.executed
            stats.restored_cells += outcome.restored
            collector = obs.active()
            if collector is not None:
                collector.add("search.candidates")
                collector.add("search.cells_executed", outcome.executed)
                collector.add("search.cells_restored", outcome.restored)
            if outcome.metrics is None:
                stats.failures += 1
                obs.add("search.failures")
                score, winner = None, None
            else:
                score = objective.score(outcome.metrics,
                                        spec.settings)
                winner = Winner(
                    name=outcome.name, profile=profile,
                    gen_seed=gen_seed, score=score,
                    frontier=objective.frontier(outcome.metrics,
                                                spec.settings),
                    metrics=outcome.metrics, eval_index=index)
                obs.point("search.score", score,
                          candidate=outcome.name, index=index)
            memo[memo_key] = (score, winner)
            if progress is not None:
                progress(index, outcome, score)

        if winner is not None:
            kept = best.get(winner.name)
            if kept is None or winner.eval_index < kept.eval_index:
                best[winner.name] = winner
            if stats.best_score is None \
                    or score > stats.best_score:
                stats.best_score = score

        improved = score is not None and (current_score is None
                                          or score > current_score)
        if improved:
            accepted = (profile, gen_seed)
            current_score = score
            stats.accepted += 1
            stall = 0
        else:
            stall += 1

        if stall >= spec.stall_limit or accepted is None:
            profile, gen_seed = _restart(rng)
            accepted = None
            current_score = None
            stall = 0
            stats.restarts += 1
        else:
            # Propose the next neighbour from the *accepted* state
            # (the rejected candidate is abandoned); the draws still
            # advance the RNG, so repeated rejections explore
            # different neighbours of the same point.
            profile, gen_seed = _move(rng, *accepted)

    winners = sorted(best.values(),
                     key=lambda w: (-w.score, w.eval_index))
    return winners[:spec.top_k], stats

