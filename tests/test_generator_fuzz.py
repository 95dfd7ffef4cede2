"""Fuzz/property harness over the synthetic generator.

Samples N random valid profiles (via the search's
:func:`~repro.workloads.synthetic.mutate.random_profile` move source)
x M generator seeds and asserts, for every pair, the properties the
whole pipeline leans on:

1. **halt within budget** -- every generated program provably halts
   before its profile's ``default_max_instructions``;
2. **byte-identical regeneration** -- regenerating the same
   ``(profile, seed)`` fingerprints identically (the search, the
   frontier corpus, and pooled tracer processes all require this);
3. **stable trace-cache key** -- two independent generations map to
   the same trace-cache path, so warm runs hit entries written by
   earlier processes;
4. **tracers agree with the reference** -- both chunked tracers, with
   every block translated on its first entry and at the default
   threshold, emit the columns of the Machine-stepped reference
   (``tests/reference/tracer.py``);
5. **the leaping walks agree with a full walk** -- the speculation
   walk equals its per-config reference
   (``tests/reference/speculation.py``) for IDLE, STR, STR(1..3) and
   the ``all`` oracle at 2 and 4 TUs under the ideal, two overhead
   models (spawns at 8 and 64 cycles) and the width model, for the
   oracle at unlimited TUs, and with a disable table; the walk's spawn
   horizon is exact at every iteration event; and the CLS-capacity
   sweep, shortcut or walked, equals a real bare-stack walk
   (``tests/reference/cls_sweep.py``) at capacities 1 to 8;
6. **the data-speculation study agrees with its reference** -- the
   single-pass study over chunked block rows equals the
   per-record two-pass study (``tests/reference/dataspec.py``) at CLS
   capacities 16 and 2;
7. **the LET/LIT row walk agrees with its reference** -- the table
   simulator's walk over runs of iteration starts equals the
   per-event replay (``tests/reference/tables.py``) at table sizes 2
   and 4 under LRU and nesting-aware replacement.

The sample stream is seeded from ``REPRO_FUZZ_SEED`` (default 2024),
so a CI failure is reproduced locally by exporting the seed the
failing run printed; the sampled cases are precomputed at collection
time so every pair shows up as its own test id.
"""

import os

import pytest

from repro.analysis import analyze_trace
from repro.core import (
    POLICY_LRU,
    POLICY_NESTING_AWARE,
    LoopDetector,
    TableHitRatioSimulator,
)
from repro.core.dataspec import DataSpeculationAnalyzer
from repro.core.speculation import (
    SpeculationDisableTable,
    grid_tables,
    simulate,
    simulate_grid,
)
from repro.cpu import trace_control_flow, trace_full
from repro.cpu import tracer as tracer_mod
from repro.pipeline.cache import TraceCache, program_fingerprint
from repro.util.rng import Xorshift64
from repro.workloads.synthetic import make_workload, random_profile

from capture import workload_trace
from reference import speculation as reference
from reference.cls_sweep import production_sweep, walked_cls_counts
from reference.dataspec import reference_stats
from reference.events import index_events
from reference.invariants import check_trace
from reference.tables import EventTableReplay, blocked_loops, table_loops
from reference.tracer import ReferenceTracer, outcome

#: Sampled (profile, seed) grid: N profiles x M seeds.
NUM_PROFILES = 8
NUM_SEEDS = 2

FUZZ_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "2024"))

_rng = Xorshift64(FUZZ_SEED)
PROFILES = [random_profile(_rng) for _ in range(NUM_PROFILES)]
SEEDS = [_rng.randint(1, 1 << 30) for _ in range(NUM_SEEDS)]

pytestmark = pytest.mark.filterwarnings("default")


def _ids(values):
    return [getattr(v, "name", str(v)) for v in values]


def test_sample_stream_is_seeded():
    """The sampled profiles are a pure function of REPRO_FUZZ_SEED --
    print it so a CI failure names its repro recipe."""
    again = Xorshift64(FUZZ_SEED)
    resampled = [random_profile(again) for _ in range(NUM_PROFILES)]
    assert [p.name for p in resampled] == [p.name for p in PROFILES]
    assert [again.randint(1, 1 << 30) for _ in range(NUM_SEEDS)] \
        == SEEDS
    print("REPRO_FUZZ_SEED=%d" % FUZZ_SEED)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_halts_within_budget(profile, seed):
    workload = make_workload(profile, seed)
    trace = workload_trace(workload)
    assert trace.halted, \
        "%s seed %d did not halt within %d instructions " \
        "(REPRO_FUZZ_SEED=%d)" \
        % (profile.name, seed, profile.default_max_instructions,
           FUZZ_SEED)
    assert check_trace(trace)
    assert trace.total_instructions < profile.default_max_instructions


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_regeneration_is_byte_identical(profile, seed):
    a = program_fingerprint(make_workload(profile, seed).program())
    b = program_fingerprint(make_workload(profile, seed).program())
    assert a == b, "REPRO_FUZZ_SEED=%d" % FUZZ_SEED


@pytest.mark.parametrize("profile", PROFILES[:3], ids=_ids(PROFILES[:3]))
def test_trace_cache_key_stable(profile, tmp_path):
    cache = TraceCache(str(tmp_path))
    name = "synth-%s-%d" % (profile.name, SEEDS[0])
    paths = {
        cache.path(name, 1, profile.default_max_instructions,
                   program_fingerprint(
                       make_workload(profile, SEEDS[0]).program()))
        for _ in range(2)
    }
    assert len(paths) == 1, "REPRO_FUZZ_SEED=%d" % FUZZ_SEED


def test_distinct_samples_generate_distinct_programs():
    """Sanity on the sampler itself: the stream explores the space
    rather than collapsing onto one program."""
    prints = {program_fingerprint(make_workload(p, SEEDS[0]).program())
              for p in PROFILES}
    assert len(prints) == len(PROFILES)


#: Instructions per program the tracer differential compares.
DIFFERENTIAL_BUDGET = 6_000


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_tracers_match_reference(profile, seed, monkeypatch):
    program = make_workload(profile, seed).program()
    budget = min(profile.default_max_instructions, DIFFERENTIAL_BUDGET)
    for cls in (tracer_mod.ChunkedCFTracer, tracer_mod.ChunkedFullTracer):
        full = cls is tracer_mod.ChunkedFullTracer
        expected = outcome(ReferenceTracer(program, budget, chunk_size=97,
                                           full=full))
        for hot in (1, tracer_mod.HOT_ENTRIES):
            monkeypatch.setattr(tracer_mod, "HOT_ENTRIES", hot)
            assert outcome(cls(program, budget, chunk_size=97)) \
                == expected, "%s HOT_ENTRIES=%d (REPRO_FUZZ_SEED=%d)" \
                % (cls.__name__, hot, FUZZ_SEED)


#: Property 5's grid: every policy x 2 TU counts x the ideal machine,
#: two overhead models and a positional one, plus the unlimited oracle.
#: A costly spawn changes which attempts spawn, and so where the walk's
#: spawn horizon skips them.
LEAP_CONFIGS = [(tus, policy, timing)
                for policy in ("idle", "str", "str(1)", "str(2)",
                               "str(3)", "all")
                for tus in (2, 4)
                for timing in (None, "overhead:spawn=8,squash=4,promote=1",
                               "overhead:spawn=64", "width:width=2")] \
    + [(None, "all", None)]
LEAP_CLS_CAPACITIES = tuple(range(1, 9))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_leaping_walks_match_full_walks(profile, seed):
    budget = min(profile.default_max_instructions, DIFFERENTIAL_BUDGET)
    trace = trace_control_flow(make_workload(profile, seed).program(),
                               budget)
    index = LoopDetector().run(trace)
    assert reference.spawn_horizon_mismatches(index, grid_tables(index)) \
        == [], "spawn horizon (REPRO_FUZZ_SEED=%d)" % FUZZ_SEED
    grid = simulate_grid(index, LEAP_CONFIGS, name="fuzz")
    for (tus, policy, timing), got in zip(LEAP_CONFIGS, grid):
        ref = reference.simulate(index, num_tus=tus, policy=policy,
                                 name="fuzz", timing=timing)
        assert got.state() == ref.state(), \
            "%s at %s TUs, %s (REPRO_FUZZ_SEED=%d)" \
            % (policy, tus, timing, FUZZ_SEED)
    for tus, policy, timing in LEAP_CONFIGS[::5]:
        tables = [SpeculationDisableTable(capacity=4, min_samples=2)
                  for _ in range(2)]
        got = simulate(index, num_tus=tus, policy=policy, name="fuzz",
                       timing=timing, disable_table=tables[0])
        ref = reference.simulate(index, num_tus=tus, policy=policy,
                                 name="fuzz", timing=timing,
                                 disable_table=tables[1])
        assert (got.state(), blocked_loops(tables[0])) \
            == (ref.state(), blocked_loops(tables[1])), \
            "disable table, %s at %s TUs, %s (REPRO_FUZZ_SEED=%d)" \
            % (policy, tus, timing, FUZZ_SEED)
    counts, _ = production_sweep(
        lambda suite: analyze_trace(suite, trace, name="fuzz"),
        LEAP_CLS_CAPACITIES)
    batches = trace.batches
    for capacity in LEAP_CLS_CAPACITIES:
        assert counts["fuzz", capacity] \
            == walked_cls_counts(batches, capacity), \
            "CLS capacity %d (REPRO_FUZZ_SEED=%d)" % (capacity, FUZZ_SEED)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_dataspec_study_matches_reference(profile, seed):
    program = make_workload(profile, seed).program()
    budget = min(profile.default_max_instructions, DIFFERENTIAL_BUDGET)
    trace = trace_full(program, budget)
    for capacity in (16, 2):
        expected = reference_stats(trace, "fuzz", capacity).state()
        tracer = tracer_mod.ChunkedFullTracer(program, budget,
                                              chunk_size=97)
        got = DataSpeculationAnalyzer(cls_capacity=capacity) \
            .analyze_batches(tracer.batches(), "fuzz").state()
        assert got == expected, "CLS capacity %d (REPRO_FUZZ_SEED=%d)" \
            % (capacity, FUZZ_SEED)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
def test_table_rows_match_reference(profile, seed):
    budget = min(profile.default_max_instructions, DIFFERENTIAL_BUDGET)
    index = LoopDetector().run(trace_control_flow(
        make_workload(profile, seed).program(), budget))
    for policy in (POLICY_LRU, POLICY_NESTING_AWARE):
        for size in (2, 4):
            sim = TableHitRatioSimulator(size, size, policy)
            sim.ensure_replayed(index)
            ref = EventTableReplay(size, size, policy).replay(
                index_events(index))
            assert (sim.counters(), table_loops(sim.let),
                    table_loops(sim.lit)) \
                == (ref.counters(), table_loops(ref.let),
                    table_loops(ref.lit)), \
                "%s size %d (REPRO_FUZZ_SEED=%d)" \
                % (policy, size, FUZZ_SEED)
