"""The speculation walk against its reference.

:func:`~repro.core.speculation.grid.simulate_grid`,
:func:`~repro.core.speculation.simulate` and the infinite-TU study all
run one walk over shared tables.  ``tests/reference/speculation.py``
keeps the per-config engine that maintains its own LET and nesting
stack event by event; every result here must be state-equal to it.
The cross covers every policy (the ``all`` oracle at finite and
unlimited TUs too), every timing model family (width and class-cost
through the walk's positional seam), both waiting-credit settings,
disable-table runs (blocked loops and per-loop outcome counts must
match as well), every analog workload (with the result invariants of
``tests/reference/invariants.py`` checked on the ideal and overhead
cells), the committed frontier corpus, random loop nests, and the
degenerate shapes (loop-free indexes, zero-trip loops, single TU,
empty config lists).
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LoopDetector
from repro.core.speculation import (
    SpeculationDisableTable,
    simulate,
    simulate_grid,
)
from repro.cpu import trace_control_flow
from repro.lang import (
    Assign,
    CallExpr,
    For,
    Module,
    Return,
    Var,
    compile_module,
)
from repro.obs.collector import Collector, activate, deactivate
from repro.pipeline import SimulationSession
from repro.search.corpus import frontier_names
from repro.timing import make_timing
from repro.timing.models import OverheadTiming
from repro.workloads.suite import SUITE_ORDER

from capture import load
from reference import speculation as reference
from reference.invariants import check_result

#: Every policy the walk accepts and every timing model family (width
#: and class-cost price positionally).
POLICIES = ("idle", "str", "str(1)", "str(2)", "str(3)", "all")
TIMINGS = (None, "overhead:spawn=8",
           "overhead:spawn=2,squash=4,promote=1",
           "width:width=2", "classcost:branch=3,other=2")
TU_COUNTS = (1, 2, 4)


def build_index(module, cls_capacity=16):
    trace = trace_control_flow(compile_module(module), 3_000_000)
    assert trace.halted
    return LoopDetector(cls_capacity=cls_capacity).run(trace)


def uniform_loop_module(trips):
    m = Module("t")
    m.function("main", [], [
        Assign("acc", 0),
        For("i", 0, trips, [Assign("acc", Var("acc") + Var("i") * 3)]),
        Return(Var("acc")),
    ])
    return m


def repeated_loop_module(executions, trips):
    m = Module("t")
    m.function("work", [], [
        Assign("a", 0),
        For("i", 0, trips, [Assign("a", Var("a") + Var("i"))]),
        Return(Var("a")),
    ])
    m.function("main", [], [
        Assign("s", 0),
        For("r", 0, executions, [
            Assign("s", Var("s") + CallExpr("work")),
        ]),
        Return(Var("s")),
    ])
    return m


def straight_line_module():
    m = Module("t")
    m.function("main", [], [
        Assign("a", 3),
        Assign("b", Var("a") * 7),
        Return(Var("b")),
    ])
    return m


def assert_grid_matches(index, configs, count_waiting=True):
    grid = simulate_grid(index, configs, name="t",
                         count_waiting=count_waiting)
    assert len(grid) == len(configs)
    for (tus, policy, timing), got in zip(configs, grid):
        ref = reference.simulate(index, num_tus=tus, policy=policy,
                                 name="t", timing=timing,
                                 count_waiting=count_waiting)
        assert got.state() == ref.state(), (tus, policy, timing)


def _disable_tables():
    # The extensions study's table, and a tight one that blocks on the
    # first miss and evicts.
    return (SpeculationDisableTable(capacity=16, min_samples=5,
                                    hit_threshold=0.5),
            SpeculationDisableTable(capacity=2, min_samples=1,
                                    hit_threshold=0.9))


def _outcomes(table, loops):
    outcomes = {}
    for loop in loops:
        stats = table.stats_for(loop)
        if stats is not None:
            outcomes[loop] = (stats.correct, stats.wrong)
    return outcomes


def assert_disable_matches(index, configs):
    """Disable-table runs of *configs*: the result, the blocked loops
    and every loop's outcome counts equal the reference's."""
    loops = set(index.columns().loops)
    for tus, policy, timing in configs:
        for got_table, ref_table in zip(_disable_tables(),
                                        _disable_tables()):
            got = simulate(index, num_tus=tus, policy=policy, name="t",
                           timing=timing, disable_table=got_table)
            ref = reference.simulate(index, num_tus=tus, policy=policy,
                                     name="t", timing=timing,
                                     disable_table=ref_table)
            where = (tus, policy, timing, ref_table.min_samples)
            assert got.state() == ref.state(), where
            assert got_table.blocked_loops() \
                == ref_table.blocked_loops(), where
            assert _outcomes(got_table, loops) \
                == _outcomes(ref_table, loops), where
            assert got_table.blocks_installed \
                == ref_table.blocks_installed, where


def fed_classcost(trace, spec="classcost:branch=3,other=2"):
    """A class-cost model fed *trace*'s records, as the session feeds
    record-fed models before a run."""
    model = make_timing(spec)
    for batch in trace.batches:
        model.feed_batch(batch)
    return model


class TestSyntheticMatrix:
    """The exhaustive policy x TU x timing cross on cheap indexes."""

    @pytest.mark.parametrize("module", [
        uniform_loop_module(40),
        repeated_loop_module(4, 12),
    ], ids=["uniform", "repeated"])
    def test_full_matrix(self, module):
        index = build_index(module)
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       POLICIES, TU_COUNTS, TIMINGS)]
        assert_grid_matches(index, configs)

    def test_count_waiting_off(self):
        index = build_index(repeated_loop_module(3, 10))
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       ("idle", "str", "str(2)"), (2, 4),
                       (None, "overhead:spawn=8"))]
        assert_grid_matches(index, configs, count_waiting=False)

    def test_single_tu_never_speculates_in_the_grid_too(self):
        index = build_index(uniform_loop_module(50))
        (result,) = simulate_grid(index, [(1, "idle", None)])
        assert result.threads_spawned == 0
        assert result.tpc == 1.0


class TestDegenerateShapes:
    def test_empty_config_list(self):
        index = build_index(uniform_loop_module(10))
        assert simulate_grid(index, []) == []

    @pytest.mark.parametrize("module", [
        straight_line_module(),
        uniform_loop_module(0),
        uniform_loop_module(1),
    ], ids=["no-loops", "zero-trip", "one-trip"])
    def test_degenerate_indexes(self, module):
        index = build_index(module)
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       POLICIES, (1, 4), (None, "overhead:spawn=8"))]
        assert_grid_matches(index, configs)

    def test_oracle_and_infinite_configs(self):
        index = build_index(repeated_loop_module(3, 8))
        configs = [(4, "all", None), (4, "all", "overhead:spawn=8"),
                   (None, "all", None), (None, "all", "width:width=2"),
                   (1, "all", None)]
        assert_grid_matches(index, configs)

    @pytest.mark.parametrize("module", [
        straight_line_module(),
        uniform_loop_module(0),
        repeated_loop_module(10, 3),
    ], ids=["no-loops", "zero-trip", "short-trips"])
    def test_disable_table_runs(self, module):
        assert_disable_matches(build_index(module), [
            (tus, policy, timing)
            for policy, tus, timing in itertools.product(
                POLICIES, (2, 8), (None, "overhead:spawn=8"))])


class TestMixedGrid:
    """One call mixing every policy and timing family mid-grid."""

    def test_mid_grid_divergence_and_counters(self):
        index = build_index(repeated_loop_module(4, 10))
        configs = [
            (4, "str", None),
            (4, "str", "width:width=2"),
            (2, "idle", "overhead:spawn=8"),
            (4, "all", None),
            (4, "str(3)", "overhead:spawn=2"),
            (4, "str", "classcost:branch=3,other=2"),
            (1, "idle", None),
            (None, "all", None),
        ]
        collector = activate(Collector())
        try:
            assert_grid_matches(index, configs)
        finally:
            deactivate()
        # assert_grid_matches prices the grid once; the reference
        # calls do not touch the grid counters.
        assert collector.counters.get("engine.fused_cells") \
            == len(configs)
        spans = [s for s in collector.spans
                 if s["name"] == "engine.simulate_grid"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["configs"] == len(configs)


class TestAnalogWorkloads:
    @pytest.fixture(scope="class")
    def loaded(self):
        return load(SimulationSession(workloads=("swim", "go"),
                                      cache_dir=None,
                                      max_instructions=30_000))

    @pytest.mark.parametrize("name", ("swim", "go"))
    def test_grid_matches_independent(self, loaded, name):
        _, index = loaded[name]
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       ("idle", "str", "str(3)"), (2, 4),
                       (None, "overhead:spawn=8", "width:width=2"))]
        assert_grid_matches(index, configs)


class TestSensitivityShapedGrid:
    """The sensitivity sweep's grid shape on three analogs: the paper's
    summary policies, the TU axis up to 8, and the ideal leg plus the
    spawn-cost overhead legs, all priced in one call over the shared
    tables."""

    POLICIES = ("idle", "str", "str(3)")
    TU_COUNTS = (1, 2, 4, 8)
    TIMINGS = (None, "overhead:spawn=0", "overhead:spawn=2",
               "overhead:spawn=8", "overhead:spawn=8,squash=4,promote=1")
    WORKLOADS = ("applu", "gcc", "tomcatv")

    @pytest.fixture(scope="class")
    def loaded(self):
        return load(SimulationSession(workloads=self.WORKLOADS,
                                      cache_dir=None,
                                      max_instructions=100_000))

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_every_cell_fuses_and_matches_independent(self, loaded,
                                                      name):
        _, index = loaded[name]
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       self.POLICIES, self.TU_COUNTS, self.TIMINGS)]
        collector = activate(Collector())
        try:
            assert_grid_matches(index, configs)
        finally:
            deactivate()
        assert collector.counters.get("engine.fused_cells") \
            == len(configs) == 60


class TestAnalogDifferential:
    """Every analog through the walk: IDLE, STR, the nested-squash
    limits STR(1), STR(2), STR(3) and STR(5) and the ``all`` oracle at
    TUs 1 to 16 and unlimited, the ideal machine, an overhead model and
    both positional models (width, and a class-cost table fed the
    analog's records), with and without waiting credit.  Each cell must
    be state-equal to its reference run; the ideal and overhead cells
    must also obey the result invariants
    (``tests/reference/invariants.py``), and a zero-cost overhead
    column rides along to check that pricing nothing changes
    nothing."""

    POLICIES = ("idle", "str", "str(1)", "str(2)", "str(3)", "str(5)",
                "all")
    TU_COUNTS = (1, 2, 4, 16)
    OVERHEAD = "overhead:spawn=8,squash=4,promote=1"
    BUDGET = 30_000

    @pytest.fixture(scope="class")
    def loaded(self):
        return load(SimulationSession(workloads=SUITE_ORDER,
                                      cache_dir=None,
                                      max_instructions=self.BUDGET))

    @pytest.mark.parametrize("count_waiting", (True, False),
                             ids=("waiting", "executing"))
    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_fused_cells_match_engine_and_invariants(
            self, loaded, name, count_waiting):
        trace, index = loaded[name]
        pairs = list(itertools.product(self.TU_COUNTS, self.POLICIES))
        zero_cost = OverheadTiming()
        checked = [(tus, policy, timing)
                   for timing in (None, self.OVERHEAD, zero_cost)
                   for tus, policy in pairs]
        positional = ("width:width=2", fed_classcost(trace))
        configs = checked + [
            (tus, policy, timing)
            for timing in positional for tus, policy in pairs] + [
            (None, "all", timing)
            for timing in (None, self.OVERHEAD) + positional]
        collector = activate(Collector())
        try:
            grid = simulate_grid(index, configs, name=name,
                                 count_waiting=count_waiting)
        finally:
            deactivate()
        assert collector.counters.get("engine.fused_cells") \
            == len(configs)
        ideal = grid[:len(pairs)]
        for slot, ((tus, policy, timing), got) in enumerate(
                zip(configs, grid)):
            ref = reference.simulate(index, num_tus=tus, policy=policy,
                                     name=name, timing=timing,
                                     count_waiting=count_waiting)
            assert got.state() == ref.state(), (tus, policy, timing)
            if slot < len(checked):
                assert check_result(got, timing,
                                    ideal[slot % len(pairs)]) == [], \
                    (tus, policy, timing)

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_disable_table_runs_match_reference(self, loaded, name):
        assert_disable_matches(loaded[name][1], [
            (tus, policy, timing)
            for policy, tus, timing in itertools.product(
                ("idle", "str", "str(2)", "all"), (2, 4, 16),
                (None, self.OVERHEAD, "width:width=2"))])


class TestFrontierCorpus:
    """Every committed adversarial case through the walk."""

    @pytest.mark.parametrize("name", frontier_names())
    def test_grid_matches_independent(self, name):
        trace, index = load(SimulationSession(
            workloads=(name,), cache_dir=None,
            max_instructions=30_000))[name]
        configs = [(2, "str", None), (4, "str(3)", "overhead:spawn=8"),
                   (4, "idle", "overhead:spawn=2,squash=4,promote=1"),
                   (1, "str", None), (4, "str(1)", None),
                   (2, "str(2)", "overhead:spawn=8,squash=4,promote=1"),
                   (4, "all", None), (None, "all", "overhead:spawn=8"),
                   (2, "idle", "width:width=2"),
                   (4, "str(1)", fed_classcost(trace))]
        assert_grid_matches(index, configs)
        assert_disable_matches(index, configs)


class TestRandomNests:
    """Random loop nests with data-dependent trip counts, so the STR
    predictions drift and STR(i) squashes fire; fresh examples on every
    hypothesis run."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 6), st.integers(1, 4),
           st.integers(1, 5))
    def test_walk_matches_reference(self, outer, inner, modulus, calls):
        m = Module("t")
        m.function("work", ["n"], [
            Assign("a", 0),
            For("k", 0, Var("n"), [Assign("a", Var("a") + Var("k"))]),
            Return(Var("a")),
        ])
        m.function("main", [], [
            Assign("x", 0),
            For("i", 0, outer, [
                For("j", 0, inner + Var("i") % modulus, [
                    Assign("x", Var("x") + CallExpr("work", Var("j"))),
                ]),
                For("r", 0, calls, [
                    Assign("x", Var("x") + CallExpr("work", Var("i"))),
                ]),
            ]),
            Return(Var("x")),
        ])
        index = build_index(m)
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       POLICIES, (2, 4), (None, "width:width=2"))]
        assert_grid_matches(index, configs + [(None, "all", None)])
        assert_disable_matches(index, configs[::3])
