"""Grid-vs-independent equivalence: the fused engine's golden suite.

:func:`~repro.core.speculation.grid.simulate_grid` promises results
bit-identical to N independent :func:`~repro.core.speculation.
simulate` calls for *any* config list -- fused configurations through
the shared-walk columns, everything else through the per-config
fallback.  These tests pin that promise across every policy, every
timing model family, every analog workload (with the result
invariants of ``tests/reference/invariants.py`` checked on every
fused cell), the committed frontier corpus, and the degenerate
shapes (loop-free indexes, zero-trip loops, single TU, empty config
lists, fused/fallback mixes inside one call), and pin that the
sensitivity-shaped grid fuses every cell.
"""

import itertools

import pytest

from repro.core import LoopDetector
from repro.core.speculation import simulate, simulate_grid
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
from repro.timing.models import OverheadTiming
from repro.workloads.suite import SUITE_ORDER

from reference.invariants import check_result

#: Every policy the engine accepts ("all" is the oracle -- always a
#: fallback config) and every timing model family (width/classcost
#: price positionally -- always fallback).
POLICIES = ("idle", "str", "str(1)", "str(2)", "str(3)")
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
        ref = simulate(index, num_tus=tus, policy=policy, name="t",
                       timing=timing, count_waiting=count_waiting)
        assert got.state() == ref.state(), (tus, policy, timing)


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

    def test_oracle_and_infinite_configs_delegate(self):
        index = build_index(repeated_loop_module(3, 8))
        configs = [(4, "all", None), (4, "all", "overhead:spawn=8"),
                   (None, "all", None)]
        assert_grid_matches(index, configs)


class TestMixedGrid:
    """One call mixing fused and fallback configs mid-grid."""

    def test_mid_grid_divergence_and_counters(self):
        index = build_index(repeated_loop_module(4, 10))
        configs = [
            (4, "str", None),                    # fused
            (4, "str", "width:width=2"),         # fallback: width
            (2, "idle", "overhead:spawn=8"),     # fused
            (4, "all", None),                    # fallback: oracle
            (4, "str(3)", "overhead:spawn=2"),   # fused
            (4, "str", "classcost:branch=3,other=2"),  # fallback
            (1, "idle", None),                   # fused
        ]
        collector = activate(Collector())
        try:
            assert_grid_matches(index, configs)
        finally:
            deactivate()
        # assert_grid_matches prices the grid once; the per-config
        # reference calls do not touch the grid counters.
        assert collector.counters.get("engine.fused_cells") == 4
        assert collector.counters.get("engine.fallback_cells") == 3
        spans = [s for s in collector.spans
                 if s["name"] == "engine.simulate_grid"]
        assert len(spans) == 1
        assert spans[0]["attrs"]["configs"] == len(configs)


class TestAnalogWorkloads:
    @pytest.fixture(scope="class")
    def session(self):
        return SimulationSession(workloads=("swim", "go"),
                                 cache_dir=None,
                                 max_instructions=30_000)

    @pytest.mark.parametrize("name", ("swim", "go"))
    def test_grid_matches_independent(self, session, name):
        index = session.index(name)
        configs = [(tus, policy, timing)
                   for policy, tus, timing in itertools.product(
                       ("idle", "str", "str(3)"), (2, 4),
                       (None, "overhead:spawn=8", "width:width=2"))]
        assert_grid_matches(index, configs)


class TestSensitivityShapedGrid:
    """The sensitivity sweep's grid shape on three analogs: the paper's
    summary policies, the TU axis up to 8, and the ideal leg plus the
    spawn-cost overhead legs.  Every cell must take the fused walk --
    a configuration dropping to the per-config fallback is a fusion
    regression, whatever it does to wall time."""

    POLICIES = ("idle", "str", "str(3)")
    TU_COUNTS = (1, 2, 4, 8)
    TIMINGS = (None, "overhead:spawn=0", "overhead:spawn=2",
               "overhead:spawn=8", "overhead:spawn=8,squash=4,promote=1")
    WORKLOADS = ("applu", "gcc", "tomcatv")

    @pytest.fixture(scope="class")
    def session(self):
        return SimulationSession(workloads=self.WORKLOADS,
                                 cache_dir=None,
                                 max_instructions=100_000)

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_every_cell_fuses_and_matches_independent(self, session,
                                                      name):
        index = session.index(name)
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
        assert "engine.fallback_cells" not in collector.counters


class TestAnalogDifferential:
    """Every analog through the fused walk: IDLE, STR and the nested-
    squash limits STR(1), STR(2), STR(3) and STR(5), TUs 1 to 16, the
    ideal machine and an overhead model, with and without waiting
    credit.  Each fused cell must be state-equal to its per-config
    engine run and obey the result invariants
    (``tests/reference/invariants.py``); a zero-cost overhead column
    rides along to check that pricing nothing changes nothing."""

    POLICIES = ("idle", "str", "str(1)", "str(2)", "str(3)", "str(5)")
    TU_COUNTS = (1, 2, 4, 16)
    OVERHEAD = "overhead:spawn=8,squash=4,promote=1"
    BUDGET = 30_000

    @pytest.fixture(scope="class")
    def session(self):
        return SimulationSession(workloads=SUITE_ORDER, cache_dir=None,
                                 max_instructions=self.BUDGET)

    @pytest.mark.parametrize("count_waiting", (True, False),
                             ids=("waiting", "executing"))
    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_fused_cells_match_engine_and_invariants(
            self, session, name, count_waiting):
        index = session.index(name)
        pairs = list(itertools.product(self.TU_COUNTS, self.POLICIES))
        zero_cost = OverheadTiming()
        configs = [(tus, policy, timing)
                   for timing in (None, self.OVERHEAD, zero_cost)
                   for tus, policy in pairs]
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
            ref = simulate(index, num_tus=tus, policy=policy, name=name,
                           timing=timing, count_waiting=count_waiting)
            assert got.state() == ref.state(), (tus, policy, timing)
            assert check_result(got, timing,
                                ideal[slot % len(pairs)]) == [], \
                (tus, policy, timing)


class TestFrontierCorpus:
    """Every committed adversarial case through the fused walk."""

    @pytest.mark.parametrize("name", frontier_names())
    def test_grid_matches_independent(self, name):
        session = SimulationSession(workloads=(name,), cache_dir=None,
                                    max_instructions=30_000)
        index = session.index(name)
        configs = [(2, "str", None), (4, "str(3)", "overhead:spawn=8"),
                   (4, "idle", "overhead:spawn=2,squash=4,promote=1"),
                   (1, "str", None), (4, "str(1)", None),
                   (2, "str(2)", "overhead:spawn=8,squash=4,promote=1")]
        assert_grid_matches(index, configs)
