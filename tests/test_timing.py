"""Tests for the pluggable timing-model layer (docs/TIMING.md)."""

import pytest

from repro.core import LoopDetector
from repro.core.speculation import simulate, simulate_infinite
from repro.cpu import trace_control_flow
from repro.isa.instructions import InstrKind
from repro.lang import (
    Assign,
    CallExpr,
    For,
    Module,
    Return,
    Var,
    compile_module,
)
from repro.timing import (
    ClassCostTiming,
    IdealTiming,
    OverheadTiming,
    TimingModel,
    WidthTiming,
    make_timing,
    parse_timing_spec,
    register_timing,
    timing_names,
)

from capture import row_for
from records import CFRecord, iter_records
from reference import cut
from reference.events import index_records


def build_trace(module):
    trace = trace_control_flow(compile_module(module), 3_000_000)
    assert trace.halted
    return trace


def feed_records(model, records):
    """Feed *records* to *model* the way the replay does: as batches."""
    for batch in cut(records, 3):
        model.feed_batch(batch)


def record_cycles(records, pos, distance, costs, other):
    """Cycles for stream positions ``[pos, pos + distance)`` counted one
    instruction at a time: a record's class cost at its seq, *other*
    for every straight-line instruction between records."""
    kinds = {rec.seq: rec.kind for rec in records}
    return sum(costs.get(kinds[seq], 1) if seq in kinds else other
               for seq in range(pos, pos + distance))


def build_index(module, cls_capacity=16):
    return LoopDetector(cls_capacity=cls_capacity).run(
        build_trace(module))


def uniform_loop_module(trips, body_statements=1):
    m = Module("t")
    body = [Assign("a%d" % k, Var("a%d" % k) + 1)
            for k in range(body_statements)]
    m.function("main", [], (
        [Assign("a%d" % k, 0) for k in range(body_statements)]
        + [For("i", 0, trips, body), Return(Var("a0"))]))
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


class TestRegistry:
    def test_builtins_registered(self):
        assert timing_names() == ["ideal", "overhead", "width",
                                  "classcost"]

    def test_spec_parsing(self):
        assert parse_timing_spec("ideal") == ("ideal", {})
        assert parse_timing_spec(" overhead : spawn = 8 , squash=2 ") \
            == ("overhead", {"spawn": 8, "squash": 2})

    def test_make_timing_instances(self):
        assert isinstance(make_timing(None), IdealTiming)
        assert isinstance(make_timing("ideal"), IdealTiming)
        model = make_timing("overhead:spawn=8,squash=4,promote=2")
        assert isinstance(model, OverheadTiming)
        assert model.key() == ("overhead", 8, 4, 2)
        assert model.name == "overhead(spawn=8,squash=4,promote=2)"
        assert make_timing(model) is model

    def test_noop_configs_canonicalize_to_ideal(self):
        assert isinstance(make_timing("overhead"), IdealTiming)
        assert isinstance(
            make_timing("overhead:spawn=0,squash=0"), IdealTiming)
        assert isinstance(make_timing("width:width=1"), IdealTiming)
        assert isinstance(make_timing("classcost:branch=1"), IdealTiming)
        assert isinstance(make_timing("width:width=2"), WidthTiming)
        assert isinstance(make_timing("classcost:branch=2"),
                          ClassCostTiming)

    def test_clean_errors(self):
        with pytest.raises(ValueError, match="unknown timing model"):
            make_timing("bogus")
        with pytest.raises(ValueError, match="unknown parameter"):
            make_timing("overhead:spam=1")
        with pytest.raises(ValueError, match="not an integer"):
            make_timing("overhead:spawn=x")
        with pytest.raises(ValueError, match="expected k=v"):
            make_timing("overhead:spawn")
        with pytest.raises(ValueError, match="integer >= 0"):
            make_timing("overhead:spawn=-3")
        with pytest.raises(ValueError, match="integer >= 1"):
            make_timing("width:width=0")

    def test_register_collision(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_timing("overhead")
            def other_overhead():
                return IdealTiming()


class TestModelMath:
    def test_ideal_defaults(self):
        model = IdealTiming()
        assert model.cycles(17, 10) == 10
        assert model.progress(7, 3, 100) == 7
        assert model.progress(7, 3, 5) == 5
        assert model.spawn_cost(4) == 0
        assert model.promote_cost() == 0
        assert model.squash_cost(4) == 0

    def test_overhead_costs(self):
        model = OverheadTiming(spawn=8, squash=4, promote=2)
        assert model.cycles(0, 10) == 10          # ideal rates
        assert model.spawn_cost(3) == 24          # per forked thread
        assert model.squash_cost(2) == 8
        assert model.promote_cost() == 2

    def test_width_rates(self):
        model = WidthTiming(width=4)
        assert model.cycles(0, 10) == 3           # ceil(10/4)
        assert model.cycles(0, 8) == 2
        assert model.progress(3, 0, 100) == 12
        assert model.progress(3, 0, 10) == 10

    def test_width_segmentation_independent(self):
        """Totals must not depend on how the engine slices the walk:
        pricing each inter-event stretch with its own ceil would
        overcharge loop-event-dense regions."""
        model = WidthTiming(width=8)
        whole = model.cycles(0, 1000)
        assert whole == 125
        for cuts in ([1] * 10 + [990],
                     [3, 7, 90, 900],
                     list(range(1, 45)) + [10]):
            pos, total = 0, 0
            for d in cuts:
                total += model.cycles(pos, d)
                pos += d
            assert total == model.cycles(0, pos), cuts
        # progress inverts the same aligned clock.
        for start in (0, 3, 8, 13):
            for elapsed in (0, 1, 5):
                done = model.progress(elapsed, start, 10 ** 9)
                assert model.cycles(start, done) <= elapsed
                assert model.cycles(start, done + 1) > elapsed

    def test_classcost_prefix_sums(self):
        model = ClassCostTiming(branch=3, other=2)
        records = [CFRecord(5, 10, int(InstrKind.BRANCH), True, 3),
                   CFRecord(9, 11, int(InstrKind.BRANCH), False, None)]
        feed_records(model, records)
        costs = {int(InstrKind.BRANCH): 3}
        # [0, 10): 8 straight-line at 2 + 2 branches at 3.
        assert model.cycles(0, 10) == 22 \
            == record_cycles(records, 0, 10, costs, 2)
        # [6, 10): three at 2, the seq-9 branch at 3.
        assert model.cycles(6, 4) == 9 \
            == record_cycles(records, 6, 4, costs, 2)
        assert model.progress(9, 6, 100) == 4
        assert model.progress(8, 6, 100) == 3
        assert model.progress(1, 6, 100) == 0
        assert model.progress(10 ** 9, 6, 12) == 12


class TestEngineOverheads:
    def test_overhead_accounting_identity(self):
        """Every overhead cycle is attributable: spawn per thread
        forked, promote per promotion, squash per thread squashed."""
        index = build_index(repeated_loop_module(8, 5))
        for policy in ("idle", "str", "str(1)"):
            result = simulate(index, num_tus=8, policy=policy,
                              timing="overhead:spawn=7,squash=3,"
                                     "promote=2")
            assert result.overhead_cycles == (
                7 * result.threads_spawned + 2 * result.promoted
                + 3 * result.squashed)
            assert result.overhead_cycles > 0

    def test_overheads_never_speed_up_the_run(self):
        index = build_index(repeated_loop_module(6, 20))
        for policy in ("idle", "str", "str(2)"):
            ideal = simulate(index, num_tus=4, policy=policy)
            loaded = simulate(index, num_tus=4, policy=policy,
                              timing="overhead:spawn=5,squash=5,"
                                     "promote=5")
            assert loaded.total_cycles >= ideal.total_cycles
            assert loaded.total_cycles \
                <= ideal.total_cycles + loaded.overhead_cycles

    def test_spawn_cost_larger_than_iteration_body(self):
        """When one fork costs more than an entire iteration, IDLE
        speculation runs slower than the sequential machine."""
        index = build_index(uniform_loop_module(60))
        iter_len = max(
            max(rec.iteration_lengths() or [0])
            for rec in index_records(index).values())
        cost = 4 * iter_len
        result = simulate(index, num_tus=4, policy="idle",
                          timing="overhead:spawn=%d" % cost)
        assert result.threads_spawned > 0
        assert result.overhead_cycles == cost * result.threads_spawned
        assert result.total_cycles > index.total_instructions
        assert result.speedup_bound < 1.0
        # Invariants survive extreme overheads.
        assert result.promoted + result.squashed \
            + result.unresolved_at_end == result.threads_spawned

    def test_squash_of_threads_pending_promotion(self):
        """IDLE overspeculates short loops, so doomed threads wait in
        TUs until the execution-end squash -- each one must pay the
        squash cost exactly once."""
        index = build_index(repeated_loop_module(10, 4))
        ideal = simulate(index, num_tus=8, policy="idle")
        assert ideal.squashed_misspec > 0
        result = simulate(index, num_tus=8, policy="idle",
                          timing="overhead:squash=11")
        assert result.squashed > 0
        assert result.overhead_cycles == 11 * result.squashed
        assert result.total_cycles >= ideal.total_cycles

    def test_policy_squash_also_charged(self):
        m = Module("t")
        inner = [Assign("x", Var("x") + 1)]
        body = [For("a", 0, 3, [For("b", 0, 3, [For("c", 0, 3,
                                                    inner)])])]
        m.function("main", [], [
            Assign("x", 0),
            For("o", 0, 6, body),
            Return(Var("x")),
        ])
        index = build_index(m)
        result = simulate(index, num_tus=4, policy="str(1)",
                          timing="overhead:squash=5")
        assert result.squashed_policy > 0
        assert result.overhead_cycles == 5 * result.squashed

    def test_single_tu_degenerate_case(self):
        """One TU never speculates, so no overhead is ever charged --
        whatever the model's costs."""
        index = build_index(repeated_loop_module(6, 10))
        result = simulate(index, num_tus=1, policy="idle",
                          timing="overhead:spawn=100,squash=100,"
                                 "promote=100")
        assert result.threads_spawned == 0
        assert result.overhead_cycles == 0
        assert result.total_cycles == index.total_instructions
        assert result.tpc == 1.0

    def test_width_speeds_up_everything(self):
        index = build_index(repeated_loop_module(6, 20))
        ideal = simulate(index, num_tus=4, policy="str")
        wide = simulate(index, num_tus=4, policy="str",
                        timing="width:width=2")
        assert wide.total_cycles < ideal.total_cycles
        assert wide.timing_name == "width(2)"

    def test_infinite_tus_accept_timing(self):
        index = build_index(uniform_loop_module(100))
        ideal = simulate_infinite(index)
        loaded = simulate_infinite(index, timing="overhead:spawn=9")
        assert loaded.overhead_cycles \
            == 9 * loaded.threads_spawned > 0
        assert loaded.total_cycles >= ideal.total_cycles

    def test_result_fields_default(self):
        index = build_index(uniform_loop_module(20))
        result = simulate(index, num_tus=4)
        assert result.timing_name == "ideal"
        assert result.overhead_cycles == 0


class TestClassCostEndToEnd:
    def test_uniform_table_matches_scaled_ideal(self):
        """An all-equal cost table is a uniform slowdown: every cycle
        count scales by the common factor."""
        trace = build_trace(repeated_loop_module(5, 8))
        index = LoopDetector().run(trace)
        model = ClassCostTiming(branch=2, jump=2, ijump=2, call=2,
                                ret=2, halt=2, other=2)
        feed_records(model, list(iter_records(trace)))
        total = trace.total_instructions
        assert model.cycles(0, total) == 2 * total
        ideal = simulate(index, num_tus=4, policy="str")
        scaled = simulate(index, num_tus=4, policy="str", timing=model)
        assert scaled.total_cycles == 2 * ideal.total_cycles
        assert scaled.tpc == pytest.approx(ideal.tpc)

    def test_branchy_costs_slow_branchy_regions(self):
        trace = build_trace(repeated_loop_module(5, 8))
        index = LoopDetector().run(trace)
        model = ClassCostTiming(branch=5, call=5, ret=5)
        feed_records(model, list(iter_records(trace)))
        costs = {int(InstrKind.BRANCH): 5, int(InstrKind.CALL): 5,
                 int(InstrKind.RET): 5}
        total = trace.total_instructions
        assert model.cycles(0, total) == record_cycles(
            list(iter_records(trace)), 0, total, costs, 1)
        ideal = simulate(index, num_tus=4, policy="str")
        costed = simulate(index, num_tus=4, policy="str", timing=model)
        assert costed.total_cycles > ideal.total_cycles


class TestSessionThreading:
    """PipelineConfig.timing -> ctx.timing -> shared_simulate."""

    def make_session(self, timing=None, workloads=("swim", "go")):
        from repro.pipeline import PipelineConfig, SimulationSession
        return SimulationSession(PipelineConfig(
            workloads=workloads, cache_dir=None, timing=timing))

    def test_config_validates_timing_eagerly(self):
        from repro.pipeline import PipelineConfig
        with pytest.raises(ValueError, match="unknown timing model"):
            PipelineConfig(timing="bogus")
        with pytest.raises(ValueError, match="spec string"):
            PipelineConfig(timing=IdealTiming())

    def test_session_default_timing_reaches_passes(self):
        from repro.analysis import AnalysisSuite, SpeculationPass
        plain = self.make_session()
        suite = AnalysisSuite()
        spec = suite.add(SpeculationPass(num_tus=4, policy="str"))
        plain.analyze(suite)
        loaded = self.make_session(timing="overhead:spawn=8")
        suite2 = AnalysisSuite()
        spec2 = suite2.add(SpeculationPass(num_tus=4, policy="str"))
        loaded.analyze(suite2)
        for name in ("swim", "go"):
            assert spec2.by_name[name].timing_name \
                == "overhead(spawn=8,squash=0,promote=0)"
            assert spec2.by_name[name].total_cycles \
                >= spec.by_name[name].total_cycles
            assert spec.by_name[name].timing_name == "ideal"

    def test_record_fed_model_through_session(self):
        from repro.analysis import AnalysisSuite, SpeculationPass
        ideal = self.make_session(workloads=("swim",))
        s1 = AnalysisSuite()
        p1 = s1.add(SpeculationPass(num_tus=4, policy="str"))
        ideal.analyze(s1)
        costed = self.make_session(timing="classcost:branch=4",
                                   workloads=("swim",))
        s2 = AnalysisSuite()
        p2 = s2.add(SpeculationPass(num_tus=4, policy="str"))
        costed.analyze(s2)
        assert p2.by_name["swim"].timing_name == "classcost(branch=4)"
        assert p2.by_name["swim"].total_cycles \
            > p1.by_name["swim"].total_cycles

    def test_record_fed_spec_rejected_inside_passes(self):
        """A pass naming a record-fed spec at finish-time would get an
        unfed (near-ideal) model; that must be an error, not silently
        wrong numbers."""
        from repro.analysis import WorkloadContext, shared_simulate
        index = build_index(repeated_loop_module(5, 8))
        ctx = WorkloadContext("t", index.total_instructions)
        ctx._index = index
        with pytest.raises(ValueError, match="record stream"):
            shared_simulate(ctx, 4, "str", timing="classcost:branch=4")

    def test_record_fed_spec_in_sweep_cell_is_fed(self):
        """A sweep or search cell naming a record-fed spec prices the
        fed model: the session-wide run's TPC, not the ideal one."""
        from repro.analysis import AnalysisSuite, SpeculationPass
        from repro.pipeline import PipelineConfig, SimulationSession
        from repro.sweep.orchestrator import run_workload_cells
        from repro.sweep.spec import KIND_SIM

        timing = "classcost:branch=5,jump=5"
        _, rows = run_workload_cells("swim", 1, 20000, 16, None, [
            ("ideal", KIND_SIM, "ideal", "str", 4),
            ("costed", KIND_SIM, timing, "str", 4)])
        tpc = {row["cell_key"]: row["tpc"] for row in rows}
        session = SimulationSession(PipelineConfig(
            workloads=("swim",), max_instructions=20000, cache_dir=None,
            timing=timing))
        wide = SpeculationPass(4, "str")
        session.analyze(AnalysisSuite([wide]))
        assert tpc["costed"] == wide.by_name["swim"].tpc
        assert tpc["costed"] != tpc["ideal"]

    def test_extensions_attach_meta(self):
        from repro.experiments.runner import build_suite
        from repro.pipeline import PipelineConfig, SimulationSession
        session = SimulationSession(PipelineConfig(
            workloads=("swim",), cache_dir=None,
            timing="overhead:spawn=8"))
        suite, _ = build_suite(["extensions"])
        disable, sync = session.analyze(suite)[0]
        expected = "overhead(spawn=8,squash=0,promote=0)"
        assert disable.meta["timing_name"] == expected
        assert disable.meta["overhead_cycles"] > 0
        assert sync.meta["timing_name"] == expected
        # The sync-free bound builds on the plain run only; the
        # disable-table study adds a second (guarded) run on top.
        assert 0 < sync.meta["overhead_cycles"] \
            < disable.meta["overhead_cycles"]

    def test_record_fed_spec_fed_once_per_workload(self, monkeypatch):
        """Passes naming one record-fed spec, or the session-wide
        default, share one model fed the trace's batches once."""
        from repro.analysis import WorkloadContext
        from repro.analysis.passes import effective_timing
        trace = build_trace(repeated_loop_module(5, 8))
        index = LoopDetector(cls_capacity=16).run(trace)
        fed = []
        original = ClassCostTiming.feed_batch

        def counting(model, batch):
            fed.append(len(batch))
            return original(model, batch)

        monkeypatch.setattr(ClassCostTiming, "feed_batch", counting)
        spec = "classcost:branch=4"
        ctx = WorkloadContext("t", trace.total_instructions, timing=spec,
                              resolve=lambda: (trace, index))
        model = effective_timing(ctx, spec)
        assert effective_timing(ctx, spec) is model
        assert effective_timing(ctx) is model
        assert sum(fed) == len(list(iter_records(trace)))
        assert len(fed) == len(trace.batches)

    def test_classcost_key_marks_fed_entries(self):
        """Cells once stored ideal values under classcost keys; the
        ``fed`` tag keeps every such entry from being read."""
        key = make_timing("classcost:branch=5,jump=5").key()
        assert key[:2] == ("classcost", "fed")
        assert key != make_timing("classcost:branch=6,jump=5").key()

    def test_shared_simulate_keys_on_timing(self):
        from repro.analysis import WorkloadContext, shared_simulate
        index = build_index(repeated_loop_module(5, 8))
        ctx = WorkloadContext("t", index.total_instructions)
        ctx._index = index
        a = shared_simulate(ctx, 4, "str")
        b = shared_simulate(ctx, 4, "str", timing="ideal")
        assert a is b       # ideal canonicalizes onto the default key
        c = shared_simulate(ctx, 4, "str", timing="overhead:spawn=8")
        d = shared_simulate(ctx, 4, "str", timing="overhead:spawn=8")
        assert c is d       # same spec memoizes
        assert c is not a
        assert c.total_cycles >= a.total_cycles


class TestGoldenIdealIdentity:
    """The timing layer must not move a single byte of default output:
    every experiment of `runner all`, rendered with no timing
    configured and with the ideal model selected explicitly, must be
    byte-identical."""

    def render_all(self, timing):
        from repro.experiments.runner import EXPERIMENT_ORDER, \
            build_suite
        from repro.pipeline import PipelineConfig, SimulationSession
        session = SimulationSession(PipelineConfig(
            workloads=("swim", "go"), cache_dir=None, timing=timing))
        suite, _ = build_suite(list(EXPERIMENT_ORDER))
        outputs = []
        for results in session.analyze(suite):
            if not isinstance(results, list):
                results = [results]
            for result in results:
                outputs.append(result.render())
                outputs.append(result.to_csv())
                outputs.append(result.to_json())
        return outputs

    def test_runner_all_byte_identical(self):
        assert self.render_all(None) == self.render_all("ideal")


class TestSensitivityExperiment:
    def test_zero_spawn_cost_reproduces_figure6(self):
        from repro.experiments.runner import build_suite
        from repro.pipeline import PipelineConfig, SimulationSession
        session = SimulationSession(PipelineConfig(
            workloads=("swim", "go"), cache_dir=None))
        suite, by_name = build_suite(
            ["figure6", "sensitivity"],
            {"sensitivity": {"spawn_costs": (0,), "tu_counts": (4,),
                             "policies": ("str",)}})
        results = session.analyze(suite)
        fig6 = results[0]
        tpc_table = results[1][0]
        for name in ("swim", "go"):
            fig6_tpc = row_for(fig6, name)[2]          # 4 TUs column
            sens_row = [r for r in tpc_table.rows if r[0] == name][0]
            assert sens_row[3] == fig6_tpc
        # The zero point shares the exact simulation object.
        assert session.stats.replays == 2

    def test_break_even_interpolation(self):
        from repro.experiments.sensitivity import break_even
        assert break_even((0, 10), (2.0, 0.5)) == \
            pytest.approx(0 + 1.0 * 10 / 1.5, abs=0.1)
        assert break_even((0, 10), (2.0, 1.5)) == ">10"
        assert break_even((0, 10), (1.0, 0.5)) == "-"
        assert break_even((0,), (1.0,)) == "-"
        assert break_even((0,), (1.4,)) == ">0"

    def test_sweep_monotone_and_break_even_consistent(self):
        from repro.analysis import AnalysisSuite
        from repro.experiments.sensitivity import SensitivityAnalysis
        from repro.pipeline import PipelineConfig, SimulationSession
        session = SimulationSession(PipelineConfig(
            workloads=("go",), cache_dir=None))
        analysis = SensitivityAnalysis(
            spawn_costs=(0, 64, 4096), tu_counts=(2, 4),
            policies=("idle", "str(3)"))
        session.analyze(AnalysisSuite([analysis]))
        tpc_table, even_table = analysis.result()
        assert len(tpc_table.rows) == 4      # 2 policies x 2 TU counts
        assert len(even_table.rows) == 2     # 2 policies
        for key, speedups in tpc_table.extra["speedups"].items():
            assert all(a >= b - 1e-9
                       for a, b in zip(speedups, speedups[1:])), key

    def test_ideal_zero_point_note_is_conditional(self):
        from repro.experiments.sensitivity import SensitivityAnalysis
        plain = SensitivityAnalysis(spawn_costs=(0,), tu_counts=(2,),
                                    policies=("str",))
        costed = SensitivityAnalysis(spawn_costs=(0,), tu_counts=(2,),
                                     policies=("str",), squash_cost=4)
        plain_note = plain.result()[0].notes[0]
        costed_note = costed.result()[0].notes[0]
        assert "ideal machine" in plain_note
        assert "ideal machine" not in costed_note
        assert "squash/promote" in costed_note
        assert isinstance(make_timing(costed.sims[0][2]), OverheadTiming)
        assert isinstance(make_timing(plain.sims[0][2]), IdealTiming)

    def test_invalid_parameters(self):
        from repro.experiments.sensitivity import SensitivityAnalysis
        with pytest.raises(ValueError, match="at least one"):
            SensitivityAnalysis(spawn_costs=())
        with pytest.raises(ValueError, match="integers >= 0"):
            SensitivityAnalysis(spawn_costs=(0, -4))
        with pytest.raises(ValueError, match=">= 1"):
            SensitivityAnalysis(tu_counts=(0, 2))


class TestExperimentMeta:
    def test_meta_rendering(self):
        from repro.experiments.report import ExperimentResult
        bare = ExperimentResult("T", ("a",), [(1,)])
        withmeta = ExperimentResult(
            "T", ("a",), [(1,)],
            meta={"timing_name": "overhead(spawn=8,squash=0,promote=0)",
                  "overhead_cycles": 123})
        assert "meta:" not in bare.render()
        assert "#" not in bare.to_csv()
        assert "meta" not in bare.to_json()
        assert "meta: timing_name=overhead(spawn=8,squash=0,promote=0)"\
            in withmeta.render()
        assert "# overhead_cycles=123" in withmeta.to_csv()
        import json
        assert json.loads(withmeta.to_json())["meta"][
            "overhead_cycles"] == 123

    def test_speculation_experiments_attach_meta(self):
        from repro.experiments.runner import build_suite
        from repro.pipeline import PipelineConfig, SimulationSession
        session = SimulationSession(PipelineConfig(
            workloads=("swim",), cache_dir=None,
            timing="overhead:spawn=8"))
        names = ["figure6", "figure7", "table2", "ablations",
                 "characterize"]
        suite, _ = build_suite(names)
        results = session.analyze(suite)
        flat = {}
        for name, tables in zip(names, results):
            if not isinstance(tables, list):
                tables = [tables]
            flat[name] = tables
        expected = "overhead(spawn=8,squash=0,promote=0)"
        assert flat["figure6"][0].meta["timing_name"] == expected
        assert flat["figure6"][0].meta["overhead_cycles"] > 0
        assert flat["figure7"][0].meta["timing_name"] == expected
        assert flat["table2"][0].meta["timing_name"] == expected
        # Ablations: the waiting-accounting table is the timed one.
        waiting = flat["ablations"][1]
        assert waiting.meta["timing_name"] == expected
        assert flat["characterize"][0].meta["timing_name"] == expected


class TestCLI:
    def test_list_includes_timing_models(self, capsys):
        from repro.experiments.runner import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "timing models" in out
        for name in ("ideal", "overhead", "width", "classcost"):
            assert name in out

    def test_unknown_timing_model_is_clean_error(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as excinfo:
            main(["figure6", "--workloads", "swim", "--no-cache",
                  "--timing", "bogus"])
        assert excinfo.value.code == 2
        assert "unknown timing model" in capsys.readouterr().err

    def test_unknown_timing_param_is_clean_error(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--workloads", "swim", "--no-cache",
                  "--timing", "overhead:spam=1"])
        assert excinfo.value.code == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_timing_flag_flows_into_output(self, capsys):
        from repro.experiments.runner import main
        assert main(["table2", "--workloads", "swim", "--no-cache",
                     "--timing", "overhead:spawn=8"]) == 0
        out = capsys.readouterr().out
        assert "meta: timing_name=overhead(spawn=8,squash=0,promote=0)"\
            in out

    def test_timing_works_for_every_speculation_experiment(self,
                                                           capsys):
        from repro.experiments.runner import main
        assert main(["figure6", "figure7", "table2", "ablations",
                     "characterize", "--workloads", "swim",
                     "--no-cache", "--timing", "width:width=2"]) == 0
        out = capsys.readouterr().out
        assert out.count("meta: timing_name=width(2)") >= 5

    def test_sensitivity_cli_flags(self, capsys):
        from repro.experiments.runner import main
        assert main(["sensitivity", "--workloads", "swim",
                     "--no-cache", "--spawn-cost", "0,16",
                     "--tus", "2", "--policies", "str"]) == 0
        out = capsys.readouterr().out
        assert "break-even" in out
        assert "spawn=16" in out

    def test_sensitivity_folds_repeated_policies(self, capsys):
        # A repeated policy is folded once, like a repeated --tus or
        # --spawn-cost value: every row prints once.
        from repro.experiments.runner import main

        def tables(policies):
            assert main(["sensitivity", "--workloads", "swim",
                         "--max-instructions", "5000", "--no-cache",
                         "--spawn-cost", "0", "--tus", "2",
                         "--policies", policies]) == 0
            return [line for line in capsys.readouterr().out.splitlines()
                    if not line.startswith("[")]

        once = tables("str")
        assert sum(line.startswith("swim") for line in once) == 2
        assert tables("str,str") == once

    def test_sensitivity_flags_require_sensitivity(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table1", "--workloads", "swim", "--no-cache",
                  "--spawn-cost", "0,2"])
        assert "sensitivity" in capsys.readouterr().err

    def test_sensitivity_bad_int_list(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["sensitivity", "--workloads", "swim", "--no-cache",
                  "--spawn-cost", "0,zap"])
        assert "comma-separated integers" \
            in capsys.readouterr().err

    def test_sensitivity_unknown_policy(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["sensitivity", "--workloads", "swim", "--no-cache",
                  "--policies", "spice"])
        assert "unknown policy" in capsys.readouterr().err


class TestThirdPartyModel:
    def test_custom_model_pluggable(self):
        class DoubleSpawn(TimingModel):
            name = "doublespawn"

            def key(self):
                return ("doublespawn",)

            def spawn_cost(self, count):
                return 2 * count

        index = build_index(uniform_loop_module(50))
        result = simulate(index, num_tus=4, policy="str",
                          timing=DoubleSpawn())
        assert result.timing_name == "doublespawn"
        assert result.overhead_cycles == 2 * result.threads_spawned
