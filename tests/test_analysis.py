"""Golden-equivalence and lifecycle tests for the streaming analysis
API.

The reference implementations below replicate the seed's
per-experiment replay style verbatim (every workload's trace and index,
captured from one ``analyze`` by :func:`capture.load`, + a fresh walk
of the event history per experiment, speculation priced by the
per-config reference engine); every experiment's rendered
output under the single-pass :class:`AnalysisSuite` must be
byte-identical to them.  Plus: the one-walk-per-workload guarantee,
the corrupt-cache retrace path, and protocol edge cases (empty trace,
zero detected loops).
"""

import os
import shutil

import pytest

from repro.analysis import (
    Analysis,
    AnalysisSuite,
    LoopStatisticsPass,
    SpeculationPass,
    WorkloadContext,
    analyze_trace,
)
from repro.core.branchpred import (
    BimodalPredictor,
    GSharePredictor,
    measure_branch_prediction,
)
from repro.core.dataspec import DataSpecStats, DataSpeculationAnalyzer
from repro.core.detector import LoopDetector
from repro.core.loopstats import LoopStatistics, compute_loop_statistics
from repro.core.speculation import SpeculationDisableTable
from repro.core.tables import (
    POLICY_LRU,
    POLICY_NESTING_AWARE,
    TableHitRatioSimulator,
)
from repro.experiments.figure8 import FULL_TRACE_LIMIT
from repro.experiments.report import ExperimentResult
from repro.experiments.runner import EXPERIMENT_ORDER, build_suite
from repro.pipeline import SimulationSession
from repro.pipeline.cache import INDEX_SUFFIX
from repro.workloads import get

from capture import load, row_for, workload_full_trace
from records import clip, trace_of
from reference.dataspec import reference_stats
from reference.speculation import simulate, simulate_infinite

WORKLOADS = ("swim", "go")
LIMIT = 40_000
#: The scale and CLS capacity of :func:`make_session`'s config.
SCALE = 1
CLS_CAPACITY = 16


def make_session():
    return SimulationSession(workloads=WORKLOADS,
                             max_instructions=LIMIT, cache_dir=None)


# ---------------------------------------------------------------------------
# Reference implementations: the seed's per-experiment replay style.
# ---------------------------------------------------------------------------

def ref_table1(loaded):
    rows = []
    for name, (_, index) in loaded.items():
        rows.append(compute_loop_statistics(index, name).as_row())
    return ExperimentResult("Table 1: Loop statistics",
                            LoopStatistics.ROW_HEADERS, rows)


def ref_figure4(loaded, sizes=(16, 8, 4, 2)):
    rows = []
    for size in sizes:
        let_hits = let_accs = lit_hits = lit_accs = 0
        for _trace, index in loaded.values():
            sim = TableHitRatioSimulator(size, size).replay(index.columns)
            let_hits += sim.let_hits
            let_accs += sim.let_accesses
            lit_hits += sim.lit_hits
            lit_accs += sim.lit_accesses
        rows.append((size,
                     round(100.0 * let_hits / let_accs, 2)
                     if let_accs else 0.0,
                     round(100.0 * lit_hits / lit_accs, 2)
                     if lit_accs else 0.0))
    return rows


def ref_figure5(loaded):
    rows = []
    for name, (trace, index) in loaded.items():
        full = simulate_infinite(index, name=name)
        reduced_trace = clip(trace,
                             max(1, trace.total_instructions // 4))
        reduced_index = LoopDetector(
            cls_capacity=CLS_CAPACITY).run(reduced_trace)
        reduced = simulate_infinite(reduced_index, name=name)
        rows.append((name, round(full.tpc, 2), round(reduced.tpc, 2)))
    return rows


def ref_figure6(loaded, tu_counts=(2, 4, 8, 16)):
    rows = []
    sums = {tus: 0.0 for tus in tu_counts}
    count = 0
    for name, (_, index) in loaded.items():
        row = [name]
        for tus in tu_counts:
            result = simulate(index, num_tus=tus, policy="str", name=name)
            sums[tus] += result.tpc
            row.append(round(result.tpc, 2))
        rows.append(tuple(row))
        count += 1
    rows.insert(0, tuple(["AVG"] + [round(sums[t] / count, 2)
                                    for t in tu_counts]))
    return rows


def ref_figure7(loaded, policies=("idle", "str", "str(1)", "str(2)",
                                  "str(3)"), tu_counts=(2, 4, 8, 16)):
    averages = {}
    indexes = [(name, index) for name, (_, index) in loaded.items()]
    for policy in policies:
        for tus in tu_counts:
            total = 0.0
            for name, index in indexes:
                total += simulate(index, num_tus=tus, policy=policy,
                                  name=name).tpc
            averages[(policy, tus)] = total / len(indexes)
    return [(policy.upper(),)
            + tuple(round(averages[(policy, tus)], 2)
                    for tus in tu_counts)
            for policy in policies]


def ref_table2(loaded):
    return [simulate(index, num_tus=4, policy="str(3)",
                     name=name).as_table2_row()
            for name, (_, index) in loaded.items()]


def ref_figure8(loaded):
    total = DataSpecStats("SUITE")
    rows = []
    for name in loaded:
        workload = get(name)
        trace = workload_full_trace(workload, SCALE,
                                    max_instructions=FULL_TRACE_LIMIT)
        stats = reference_stats(trace, workload.name, CLS_CAPACITY)
        rows.append(stats.as_row())
        total.merge(stats)
    rows.insert(0, total.as_row())
    return rows


def ref_ablations(loaded):
    # 1. replacement policy
    replacement_rows = []
    for size in (2, 4):
        ratios = {}
        for policy in (POLICY_LRU, POLICY_NESTING_AWARE):
            let_h = let_a = lit_h = lit_a = 0
            for _trace, index in loaded.values():
                sim = TableHitRatioSimulator(size, size, policy)
                sim.replay(index.columns)
                let_h += sim.let_hits
                let_a += sim.let_accesses
                lit_h += sim.lit_hits
                lit_a += sim.lit_accesses
            ratios[policy] = (let_h / let_a if let_a else 0.0,
                              lit_h / lit_a if lit_a else 0.0)
        lru, aware = ratios[POLICY_LRU], ratios[POLICY_NESTING_AWARE]
        replacement_rows.append((size, round(100 * lru[0], 2),
                                 round(100 * aware[0], 2),
                                 round(100 * lru[1], 2),
                                 round(100 * aware[1], 2)))
    # 2. waiting accounting
    waiting_rows = []
    for name, (_, index) in loaded.items():
        incl = simulate(index, num_tus=4, policy="str", name=name,
                        count_waiting=True)
        excl = simulate(index, num_tus=4, policy="str", name=name,
                        count_waiting=False)
        waiting_rows.append((name, round(incl.tpc, 2),
                             round(excl.tpc, 2)))
    waiting_rows.insert(
        0, ("AVG",
            round(sum(r[1] for r in waiting_rows) / len(waiting_rows), 2),
            round(sum(r[2] for r in waiting_rows) / len(waiting_rows), 2)))
    # 3. CLS capacity
    cls_rows = []
    for capacity in (2, 4, 8, 16):
        overflowed = executions = 0
        for trace, _index in loaded.values():
            detector = LoopDetector(cls_capacity=capacity)
            index = detector.run(trace)
            overflowed += detector.cls.overflow_count
            executions += len(index)
        cls_rows.append((capacity, overflowed,
                         round(100.0 * overflowed / executions, 3)
                         if executions else 0.0))
    return replacement_rows, waiting_rows, cls_rows


def ref_baselines(loaded):
    rows = []
    totals = {"closing_c": 0, "closing_t": 0, "other_c": 0, "other_t": 0,
              "gshare_c": 0, "gshare_t": 0}
    for name, (trace, _index) in loaded.items():
        bimodal = measure_branch_prediction(trace, BimodalPredictor(),
                                            name)
        gshare = measure_branch_prediction(trace, GSharePredictor(), name)
        rows.append((name,
                     round(100 * bimodal.closing_accuracy, 2),
                     round(100 * bimodal.other_accuracy, 2),
                     round(100 * bimodal.overall_accuracy, 2),
                     round(100 * gshare.overall_accuracy, 2)))
        totals["closing_c"] += bimodal.closing_correct
        totals["closing_t"] += bimodal.closing_total
        totals["other_c"] += bimodal.other_correct
        totals["other_t"] += bimodal.other_total
        totals["gshare_c"] += gshare.closing_correct + gshare.other_correct
        totals["gshare_t"] += gshare.closing_total + gshare.other_total
    rows.insert(0, (
        "SUITE",
        round(100 * totals["closing_c"] / max(1, totals["closing_t"]), 2),
        round(100 * totals["other_c"] / max(1, totals["other_t"]), 2),
        round(100 * (totals["closing_c"] + totals["other_c"])
              / max(1, totals["closing_t"] + totals["other_t"]), 2),
        round(100 * totals["gshare_c"] / max(1, totals["gshare_t"]), 2)))
    return rows


def ref_extensions(loaded):
    disable_rows = []
    for name, (_, index) in loaded.items():
        plain = simulate(index, num_tus=4, policy="str", name=name)
        table = SpeculationDisableTable(capacity=16, min_samples=5,
                                        hit_threshold=0.5)
        guarded = simulate(index, num_tus=4, policy="str", name=name,
                           disable_table=table)
        disable_rows.append((name, round(100 * plain.hit_ratio, 2),
                             round(100 * guarded.hit_ratio, 2),
                             round(plain.tpc, 2), round(guarded.tpc, 2),
                             len(table)))
    avg = tuple(round(sum(r[i] for r in disable_rows)
                      / len(disable_rows), 2) for i in range(1, 5))
    disable_rows.insert(0, ("AVG",) + avg + ("",))

    sync_rows = []
    for name, (_trace, index) in loaded.items():
        workload = get(name)
        control = simulate(index, num_tus=4, policy="str",
                           name=workload.name)
        trace = workload_full_trace(workload, SCALE,
                                    max_instructions=FULL_TRACE_LIMIT)
        data = reference_stats(trace, workload.name, CLS_CAPACITY)
        sync_free_tpc = 1.0 + (control.tpc - 1.0) * data.all_data
        sync_rows.append((workload.name, round(control.tpc, 2),
                          round(100 * data.all_data, 2),
                          round(sync_free_tpc, 2)))
    avg = tuple(round(sum(r[i] for r in sync_rows) / len(sync_rows), 2)
                for i in range(1, 4))
    sync_rows.insert(0, ("AVG",) + avg)
    return disable_rows, sync_rows


# ---------------------------------------------------------------------------
# Golden equivalence: single pass == seed per-experiment replays.
# ---------------------------------------------------------------------------

ALL_EXPERIMENTS = ("table1", "figure4", "figure5", "figure6", "figure7",
                   "table2", "figure8", "ablations", "baselines",
                   "extensions")


@pytest.fixture(scope="module")
def single_pass():
    """One analyze() over every experiment at once."""
    session = make_session()
    suite, by_name = build_suite(list(ALL_EXPERIMENTS))
    session.analyze(suite)
    return session, by_name


@pytest.fixture(scope="module")
def reference_loaded():
    return load(make_session())


class TestGoldenEquivalence:
    def test_exactly_one_replay_per_workload(self, single_pass):
        session, _ = single_pass
        assert session.stats.replays == len(WORKLOADS)

    def test_table1(self, single_pass, reference_loaded):
        _, by_name = single_pass
        result = by_name["table1"].result()
        assert result.rows == ref_table1(reference_loaded).rows
        assert result.headers == LoopStatistics.ROW_HEADERS

    def test_figure4(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["figure4"].result().rows \
            == ref_figure4(reference_loaded)

    def test_figure5(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["figure5"].result().rows \
            == ref_figure5(reference_loaded)

    def test_figure6(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["figure6"].result().rows \
            == ref_figure6(reference_loaded)

    def test_figure7(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["figure7"].result().rows \
            == ref_figure7(reference_loaded)

    def test_table2(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["table2"].result().rows \
            == ref_table2(reference_loaded)

    def test_figure8(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["figure8"].result().rows \
            == ref_figure8(reference_loaded)

    def test_ablations(self, single_pass, reference_loaded):
        _, by_name = single_pass
        replacement, waiting, cls_rows = \
            ref_ablations(reference_loaded)
        got = by_name["ablations"].result()
        assert got[0].rows == replacement
        assert got[1].rows == waiting
        assert got[2].rows == cls_rows

    def test_baselines(self, single_pass, reference_loaded):
        _, by_name = single_pass
        assert by_name["baselines"].result().rows \
            == ref_baselines(reference_loaded)

    def test_extensions(self, single_pass, reference_loaded):
        _, by_name = single_pass
        disable_rows, sync_rows = ref_extensions(reference_loaded)
        got = by_name["extensions"].result()
        assert got[0].rows == disable_rows
        assert got[1].rows == sync_rows


class TestSharedWork:
    def test_dataspec_shared_between_figure8_and_extensions(self,
                                                            monkeypatch):
        """figure8 + extensions in one suite analyze each study stream
        exactly once."""
        calls = []
        original = DataSpeculationAnalyzer.analyze_batches

        def counting(self, batches, name="workload"):
            calls.append(name)
            return original(self, batches, name)

        monkeypatch.setattr(DataSpeculationAnalyzer, "analyze_batches",
                            counting)
        session = make_session()
        suite, _ = build_suite(["figure8", "extensions"])
        session.analyze(suite)
        assert sorted(calls) == sorted(WORKLOADS)

    def test_loop_statistics_shared_between_passes(self, monkeypatch):
        """Two loop-statistics passes in one suite (table1 and
        characterize in `runner all`) compute each workload's
        statistics and coverage once."""
        from repro.analysis import passes

        calls = []
        original = passes.loop_coverage

        def counting(index):
            calls.append(index)
            return original(index)

        monkeypatch.setattr(passes, "loop_coverage", counting)
        suite = AnalysisSuite()
        first = suite.add(LoopStatisticsPass())
        second = suite.add(LoopStatisticsPass())
        make_session().analyze(suite)
        assert len(calls) == len(WORKLOADS)
        assert first.by_name == second.by_name
        assert first.coverage == second.coverage

    def test_ctx_memo_restores_computes_and_persists(self):
        class Store:
            def __init__(self, entries):
                self.entries = dict(entries)
                self.gets = 0

            def get(self, key):
                self.gets += 1
                return self.entries.get(key)

            def put(self, key, value):
                self.entries[key] = value

        def boom():
            raise AssertionError("a hit recomputed")

        # A lookup miss, then a compute that does not re-read the store.
        store = Store({})
        ctx = WorkloadContext("w", 10, cls_capacity=8, derived=store)
        assert ctx.memo(("x", 1), int) is None
        assert ctx.memo(("x", 1), int, lambda: 5, str) == 5
        assert ctx.memo(("x", 1), int, boom, str) == 5
        assert (store.gets, store.entries) == (1, {"x/1/c8": "5"})
        # A hit is restored once and shared; a malformed entry is a miss.
        store = Store({"x/1/c8": "3", "y/c8": "bad"})
        ctx = WorkloadContext("w", 10, cls_capacity=8, derived=store)
        assert ctx.memo(("x", 1), int, boom, str) == 3
        assert ctx.memo(("x", 1), int) == 3
        assert ctx.memo(("y",), int, lambda: 7, str) == 7
        assert store.gets == 2 and store.entries["y/c8"] == "7"
        # Without a store the value is still computed once per workload.
        ctx = WorkloadContext("w", 10)
        assert ctx.memo(("x",), int, lambda: 9, str) == 9
        assert ctx.memo(("x",), int, boom, str) == 9


class TestWalkCounts:
    """Exact trace-walk counts over a warm trace cache: an empty
    derived store costs one walk per workload -- for the whole suite
    and for each experiment on its own -- and a filled one costs
    none."""

    #: Experiments whose results need no control-flow trace walk
    #: (figure8 runs its own study tracer).
    TRACE_FREE = ("figure8",)

    #: ``(replays, index hits)`` of each experiment that does not read
    #: the index alone, over a cache that holds the indexes: figure8
    #: reads neither, the baselines' predictors read only the records,
    #: and the CLS-capacity ablation walks the records of the one
    #: workload (go) where its no-overflow shortcut does not apply.
    INDEXED = {"figure8": (0, 0), "baselines": (len(WORKLOADS), 0),
               "ablations": (1, len(WORKLOADS))}

    @pytest.fixture(scope="class")
    def trace_cache(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("walks"))
        session = self._session(cache_dir)
        session.ensure_traced()
        assert session.stats.traced == len(WORKLOADS)
        return cache_dir

    @pytest.fixture(scope="class")
    def index_cache(self, tmp_path_factory):
        """A trace cache that also holds every workload's index."""
        cache_dir = str(tmp_path_factory.mktemp("indexed"))
        session = self._session(cache_dir)
        session.analyze(build_suite(["table1"])[0])
        assert (session.stats.traced, session.stats.replays) \
            == (len(WORKLOADS), len(WORKLOADS))
        return cache_dir

    @staticmethod
    def _drop_indexes(cache_dir):
        for name in os.listdir(cache_dir):
            if name.endswith(INDEX_SUFFIX):
                os.unlink(os.path.join(cache_dir, name))

    @staticmethod
    def _session(cache_dir):
        return SimulationSession(workloads=WORKLOADS,
                                 max_instructions=LIMIT,
                                 cache_dir=cache_dir)

    def _analyze(self, cache_dir, experiments, empty_store=True):
        if empty_store:
            shutil.rmtree(os.path.join(cache_dir, "derived"),
                          ignore_errors=True)
        session = self._session(cache_dir)
        suite, _ = build_suite(list(experiments))
        session.analyze(suite)
        assert (session.stats.traced, session.stats.cache_hits) \
            == (0, len(WORKLOADS))
        return session.stats.replays

    @pytest.mark.parametrize("name", EXPERIMENT_ORDER)
    def test_each_experiment_alone_walks_each_workload_once(
            self, trace_cache, name):
        """Without index entries every experiment but figure8 walks
        each workload once (and stores its index)."""
        self._drop_indexes(trace_cache)
        expected = 0 if name in self.TRACE_FREE else len(WORKLOADS)
        assert self._analyze(trace_cache, [name]) == expected

    @pytest.mark.parametrize("name", EXPERIMENT_ORDER)
    def test_stored_indexes_leave_only_record_walks(self, index_cache,
                                                    name):
        """With the indexes stored, an experiment that reads only the
        index walks no trace: it reads each workload's index entry."""
        shutil.rmtree(os.path.join(index_cache, "derived"),
                      ignore_errors=True)
        session = self._session(index_cache)
        session.analyze(build_suite([name])[0])
        assert (session.stats.replays, session.stats.index_hits) \
            == self.INDEXED.get(name, (0, len(WORKLOADS)))

    def test_full_suite_walks_once_then_looks_up(self, trace_cache):
        assert self._analyze(trace_cache, EXPERIMENT_ORDER) \
            == len(WORKLOADS)
        assert self._analyze(trace_cache, EXPERIMENT_ORDER,
                             empty_store=False) == 0


# ---------------------------------------------------------------------------
# Lifecycle edge cases.
# ---------------------------------------------------------------------------

def empty_trace():
    return trace_of([], 0, False, "empty")


def loopless_trace():
    """A compiled straight-line program: records, but no loops."""
    from repro.cpu import trace_control_flow
    from repro.lang import compile_module, parse_module
    module = parse_module(
        "func main() { var x = 1 + 2; return x; }", name="line")
    return trace_control_flow(compile_module(module))


class TestLifecycle:
    def test_empty_trace(self):
        stats_pass = LoopStatisticsPass()
        spec_pass = SpeculationPass(num_tus=4, policy="str")
        suite, by_name = build_suite(["table1", "figure4", "figure6"])
        suite.add(stats_pass)
        suite.add(spec_pass)
        analyze_trace(suite, empty_trace(), name="empty")
        stats = stats_pass.by_name["empty"]
        assert stats.executions == 0
        assert stats.static_loops == 0
        assert spec_pass.by_name["empty"].tpc == 1.0
        assert by_name["table1"].result().rows \
            == [("empty", 0, 0, 0.0, 0.0, 0.0, 0)]
        for row in by_name["figure4"].result().rows:
            assert row[1:] == (0.0, 0.0)
        assert row_for(by_name["figure6"].result(), "empty")[1:] \
            == (1.0, 1.0, 1.0, 1.0)

    def test_zero_detected_loops(self):
        trace = loopless_trace()
        stats_pass = LoopStatisticsPass()
        analyze_trace([stats_pass], trace, name="line")
        stats = stats_pass.by_name["line"]
        assert stats.static_loops == 0
        assert stats.executions == 0
        assert stats.total_instructions == trace.total_instructions

    def test_context_resolves_once_on_first_read(self):
        trace = loopless_trace()
        index = LoopDetector(cls_capacity=16).run(trace)
        calls = []

        def load_trace(ctx):
            calls.append("trace")
            return trace

        def load_index(ctx):
            calls.append("index")
            return index

        ctx = WorkloadContext("line", trace.total_instructions,
                              load_trace=load_trace, load_index=load_index)
        ctx.shared["x"] = 1
        assert ctx.total_instructions == trace.total_instructions
        assert calls == []          # nothing read yet: no walk
        assert ctx.index is index
        assert calls == ["index"]   # the index alone loads no trace
        assert ctx.index is index
        assert ctx.trace is trace
        assert ctx.trace is trace
        assert calls == ["index", "trace"]

    def test_context_index_built_from_the_context_trace(self):
        """An index loader that builds reads ``ctx.trace``: one trace
        load serves both attributes."""
        trace = loopless_trace()
        calls = []

        def load_trace(ctx):
            calls.append("trace")
            return trace

        ctx = WorkloadContext(
            "line", trace.total_instructions, load_trace=load_trace,
            load_index=lambda ctx: LoopDetector(cls_capacity=16).run(
                ctx.trace))
        assert len(ctx.index) == 0
        assert ctx.trace is trace
        assert calls == ["trace"]

    def test_context_resolver_retried_after_it_raises(self):
        """A loader that raised (a corrupt cache entry, say) leaves
        nothing behind: the next read calls it again."""
        trace = loopless_trace()
        index = LoopDetector(cls_capacity=16).run(trace)
        calls = []

        def load_trace(ctx):
            calls.append(1)
            if len(calls) == 1:
                raise OSError("corrupt")
            return trace

        ctx = WorkloadContext("line", trace.total_instructions,
                              load_trace=load_trace,
                              load_index=lambda ctx: index)
        with pytest.raises(OSError, match="corrupt"):
            ctx.trace
        assert ctx.trace is trace
        assert ctx.index is index
        assert len(calls) == 2

    def test_context_without_resolver_has_no_record_stream(self):
        index = LoopDetector(cls_capacity=16).run(loopless_trace())
        ctx = WorkloadContext("line", index.total_instructions)
        for attr in ("trace", "index"):
            with pytest.raises(ValueError, match="record stream"):
                getattr(ctx, attr)
        ctx._index = index          # an assigned index needs no stream
        assert ctx.index is index
        with pytest.raises(ValueError, match="record stream"):
            ctx.trace

    def test_analysis_valueerror_propagates_without_retrace(self):
        """Only the cache stream's own corruption triggers a retrace;
        a pass raising ValueError surfaces."""

        class Broken(Analysis):
            def finish(self, ctx):
                # Reading the index makes the workload walk its trace
                # once before the pass fails.
                assert len(ctx.index.columns) >= 0
                raise ValueError("bad pass")

            def result(self):
                return None

        session = make_session()
        with pytest.raises(ValueError, match="bad pass"):
            session.analyze(AnalysisSuite([Broken()]))
        assert session.stats.replays == 1   # no second replay

    def test_corrupt_cache_entry_restarts_workload(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        warm = SimulationSession(workloads=WORKLOADS,
                                 max_instructions=LIMIT,
                                 cache_dir=cache_dir)
        warm.ensure_traced()
        for entry in os.listdir(cache_dir):
            path = os.path.join(cache_dir, entry)
            data = open(path, "rb").read()
            open(path, "wb").write(data[:len(data) * 3 // 4])
        session = SimulationSession(workloads=WORKLOADS,
                                    max_instructions=LIMIT,
                                    cache_dir=cache_dir)
        # baselines and ablations walk the trace's batches themselves.
        names = ["table1", "figure4", "baselines", "ablations"]
        suite, by_name = build_suite(names)
        session.analyze(suite)
        assert session.stats.traced == len(WORKLOADS)
        reference = load(make_session())
        assert by_name["table1"].result().rows \
            == ref_table1(reference).rows
        assert by_name["figure4"].result().rows == ref_figure4(reference)
        clean, clean_by_name = build_suite(names[2:])
        make_session().analyze(clean)
        assert by_name["baselines"].result().rows \
            == clean_by_name["baselines"].result().rows
        for got, want in zip(by_name["ablations"].result(),
                             clean_by_name["ablations"].result()):
            assert got.rows == want.rows


# ---------------------------------------------------------------------------
# Suite plumbing.
# ---------------------------------------------------------------------------

class TestAnalysisSuite:
    def test_named_registration(self):
        suite = AnalysisSuite()
        stats = suite.add(LoopStatisticsPass(), name="stats")
        default = suite.add(LoopStatisticsPass())
        assert suite._analyses == [stats, default]
        assert suite._names == ["stats", "LoopStatisticsPass"]

    def test_results_in_registration_order(self):
        class Const(Analysis):
            def __init__(self, value):
                self.value = value

            def finish(self, ctx):
                pass

            def result(self):
                return self.value

        suite = AnalysisSuite([Const(1), Const(2), Const(3)])
        assert analyze_trace(suite, empty_trace()) == [1, 2, 3]
