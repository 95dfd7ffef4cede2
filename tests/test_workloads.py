"""Workload suite validation: every workload compiles, halts, and keeps
the loop-shape signature it claims (Table 1 fidelity)."""

import pytest

from repro.core import compute_loop_statistics
from repro.cpu import trace_control_flow
from repro.workloads import SUITE_ORDER, get, suite

from capture import workload_index, workload_trace
from records import iter_records
from reference.invariants import check_trace
from reference.events import index_records


@pytest.fixture(scope="module")
def stats_by_name():
    """Loop statistics for the full suite at scale 1 (computed once)."""
    result = {}
    for workload in suite():
        index = workload_index(workload, scale=1)
        result[workload.name] = compute_loop_statistics(index,
                                                        workload.name)
    return result


class TestSuiteBasics:
    def test_suite_has_all_18(self):
        assert len(SUITE_ORDER) == 18
        assert len(suite()) == 18

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_halts_within_budget(self, name):
        workload = get(name)
        trace = workload_trace(workload, scale=1)
        assert trace.halted, "%s did not halt" % name

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_trace_is_valid(self, name):
        trace = workload_trace(get(name), scale=1)
        assert check_trace(trace)

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_deterministic(self, name):
        workload = get(name)
        a = workload_trace(workload, scale=1)
        b = workload_trace(workload, scale=1)
        assert a.total_instructions == b.total_instructions
        a, b = list(iter_records(a)), list(iter_records(b))
        assert a[:100] == b[:100]
        assert a[-100:] == b[-100:]

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_meaningful_size(self, name, stats_by_name):
        stats = stats_by_name[name]
        assert stats.total_instructions > 40_000
        assert stats.executions > 10
        assert stats.static_loops >= 2

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_scale_increases_work(self, name):
        workload = get(name)
        small = workload_trace(workload, scale=1).total_instructions
        big = workload_trace(workload, 
            scale=2, max_instructions=20_000_000).total_instructions
        assert big > 1.5 * small

    def test_categories_assigned(self):
        for workload in suite():
            assert workload.category in ("int", "fp")
        assert 7 <= len([w for w in suite() if w.category == "int"]) <= 9


class TestShapeSignatures:
    """Each analog must keep its SPEC95 row's distinguishing property."""

    def test_swim_has_highest_iterations_per_execution(self, stats_by_name):
        swim = stats_by_name["swim"].iterations_per_execution
        assert swim > 100
        for name, stats in stats_by_name.items():
            if name != "swim":
                assert stats.iterations_per_execution < swim

    def test_fpppp_has_largest_iteration_bodies(self, stats_by_name):
        fpppp = stats_by_name["fpppp"].instructions_per_iteration
        assert fpppp > 1000
        for name, stats in stats_by_name.items():
            if name != "fpppp":
                assert stats.instructions_per_iteration < fpppp

    def test_fpppp_has_few_iterations(self, stats_by_name):
        assert stats_by_name["fpppp"].iterations_per_execution < 4.5

    def test_m88ksim_dispatch_iterations_short(self, stats_by_name):
        # Tiny iteration bodies (the smallest among the integer codes
        # with gcc/perl/compress-class bodies under ~150 instructions).
        assert stats_by_name["m88ksim"].instructions_per_iteration < 150

    def test_deep_nesters(self, stats_by_name):
        for name in ("applu", "go", "ijpeg", "fpppp"):
            assert stats_by_name[name].max_nesting >= 5, name

    def test_flat_profiles(self, stats_by_name):
        for name in ("swim", "su2cor", "wave5", "vortex"):
            assert stats_by_name[name].max_nesting <= 3, name

    def test_high_trip_numeric_kernels(self, stats_by_name):
        for name in ("hydro2d", "mgrid", "su2cor", "tomcatv", "wave5"):
            assert stats_by_name[name].iterations_per_execution > 20, name

    def test_short_trip_programs(self, stats_by_name):
        for name in ("applu", "fpppp", "go", "li", "turb3d"):
            assert stats_by_name[name].iterations_per_execution < 8, name

    def test_gcc_has_most_static_loops(self, stats_by_name):
        gcc_loops = stats_by_name["gcc"].static_loops
        assert gcc_loops >= 10

    def test_compress_has_single_iteration_probes(self, stats_by_name):
        # Data-dependent probe loops produce single-iteration executions.
        assert stats_by_name["compress"].single_iteration_executions > 0


class TestControlCharacter:
    @pytest.mark.parametrize("name", ("gcc", "go", "perl", "li"))
    def test_integer_codes_are_branchy(self, name):
        # Every record is one control transfer.
        trace = workload_trace(get(name), scale=1)
        transfers = sum(len(batch) for batch in trace.batches)
        assert transfers / trace.total_instructions > 0.07

    @pytest.mark.parametrize("name", ("swim", "tomcatv", "hydro2d"))
    def test_numeric_codes_have_low_branch_diversity(self, name):
        from repro.isa import InstrKind
        branch = int(InstrKind.BRANCH)
        taken = branches = 0
        for batch in workload_trace(get(name), scale=1).batches:
            for kind, was_taken in zip(batch.kinds, batch.takens):
                if kind == branch:
                    branches += 1
                    taken += bool(was_taken)
        assert taken / branches > 0.5

    def test_go_uses_recursion(self):
        from repro.isa import InstrKind
        trace = workload_trace(get("go"), scale=1)
        calls = sum(1 for r in iter_records(trace)
                    if r.kind == int(InstrKind.CALL))
        rets = sum(1 for r in iter_records(trace)
                   if r.kind == int(InstrKind.RET))
        assert calls > 1000
        assert calls == rets

    def test_cls_never_overflows_at_16(self):
        from repro.core import LoopDetector
        for workload in suite():
            detector = LoopDetector(cls_capacity=16)
            detector.run(workload_trace(workload, scale=1))
            assert detector.cls.overflow_count == 0, workload.name

    def test_cls_drains_before_halt(self):
        from repro.core import EndReason, LoopDetector
        for workload in suite():
            detector = LoopDetector(cls_capacity=16)
            index = detector.run(workload_trace(workload, scale=1))
            flushed = [r for r in index_records(index).values()
                       if r.reason is EndReason.FLUSH]
            # Structured programs: at most the outermost loops linger
            # when the budget truncates; a halted trace drains fully.
            assert len(flushed) == 0, workload.name


class TestRegistry:
    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get("spice")

    def test_duplicate_registration_rejected(self):
        from repro.workloads.base import register
        with pytest.raises(ValueError):
            register("swim", "dup", "fp")(lambda scale: None)

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            get("swim").build_module(scale=0)
