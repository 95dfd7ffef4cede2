"""The observability layer: collector semantics, manifests, the
per-stage timeline, pool-worker event merging, the tty progress line,
the runner/sweep/search ``--metrics`` surface, and the report tool.

The load-bearing guarantees tested here:

* disabled instrumentation is a true no-op -- a stock ``runner`` run's
  stdout is byte-identical with and without a collector in the build;
* worker event merges are deterministic (configured workload order,
  not completion order);
* manifests round-trip through disk and fail loudly on schema damage
  (``obs_report`` exits 2, never a soft pass).
"""

import importlib.util
import io
import json
import os
import re

import pytest

from repro.experiments.runner import main as runner_main
from repro.obs import (
    Collector,
    ManifestError,
    ProgressLine,
    RunObserver,
    build_manifest,
    events_path,
    load_manifest,
    render_timeline,
    span_coverage,
    stage_rollup,
    validate_manifest,
    write_manifest,
)
from repro.obs import collector as obs
from repro.obs.manifest import LAST_RUN_MANIFEST
from repro.pipeline import SimulationSession
from repro.trace import kernels
from repro.workloads import get

from capture import load, row_for, workload_trace

TOOLS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name.replace(".py", "_tool"), os.path.join(TOOLS, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    """A deterministic perf_counter: each call advances 1 second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        now = self.now
        self.now += 1.0
        return now


@pytest.fixture(autouse=True)
def no_leaked_collector():
    """Every test starts and ends with no active collector."""
    obs.deactivate()
    yield
    obs.deactivate()


# ---------------------------------------------------------------------------
# Collector.
# ---------------------------------------------------------------------------

class TestCollector:
    def test_span_nesting_and_completion_order(self):
        collector = Collector(clock=FakeClock())
        with collector.span("outer", workload="swim"):
            with collector.span("inner"):
                pass
            with collector.span("inner"):
                pass
        names = [s["name"] for s in collector.spans]
        assert names == ["inner", "inner", "outer"]  # completion order
        outer = collector.spans[-1]
        assert outer["parent"] is None and outer["depth"] == 0
        assert outer["attrs"] == {"workload": "swim"}
        for inner in collector.spans[:2]:
            assert inner["parent"] == outer["id"]
            assert inner["depth"] == 1
        # FakeClock ticks once per call: every span lasts exactly the
        # ticks spent inside it.
        assert outer["seconds"] > max(s["seconds"]
                                      for s in collector.spans[:2])

    def test_counters_gauges_points(self):
        collector = Collector(clock=FakeClock())
        collector.add("records", 3)
        collector.add("records", 2)
        collector.add("seconds", 0.5)
        collector.gauge("backend", "numpy")
        collector.gauge("backend", "stdlib")
        collector.point("score", 0.25, candidate="a")
        assert collector.counters == {"records": 5, "seconds": 0.5}
        assert collector.gauges == {"backend": "stdlib"}
        assert collector.points[0]["value"] == 0.25
        assert collector.points[0]["attrs"] == {"candidate": "a"}

    def test_activate_rejects_second_collector(self):
        first = obs.activate(Collector())
        assert obs.active() is first
        assert obs.activate(first) is first     # re-activating is fine
        with pytest.raises(RuntimeError):
            obs.activate(Collector())
        assert obs.deactivate() is first
        assert obs.deactivate() is None         # idempotent

    def test_module_functions_are_noops_when_inactive(self):
        assert obs.active() is None
        span = obs.span("anything", attr=1)
        assert span is obs.span("other")        # the shared null span
        with span:
            pass
        obs.add("counter")
        obs.point("point", 2)
        # Nothing recorded anywhere: there is no collector to look at.
        assert obs.active() is None

    def test_module_functions_reach_active_collector(self):
        collector = obs.activate(Collector(clock=FakeClock()))
        with obs.span("stage"):
            obs.add("n", 2)
        obs.point("p", 1.5)
        obs.deactivate()
        assert [s["name"] for s in collector.spans] == ["stage"]
        assert collector.counters == {"n": 2}
        assert len(collector.points) == 1

    def test_export_absorb_reparents_and_merges(self):
        worker = Collector(clock=FakeClock())
        with worker.span("trace"):
            with worker.span("io"):
                pass
        worker.add("records", 10)
        worker.gauge("backend", "stdlib")
        worker.point("sample", 1)
        export = worker.export()

        parent = Collector(clock=FakeClock())
        parent.add("records", 1)
        parent.gauge("backend", "numpy")
        with parent.span("analyze"):
            parent.absorb(export, workload="swim")
        spans = {(s["name"], s["depth"]): s for s in parent.spans}
        analyze = spans[("analyze", 0)]
        trace = spans[("trace", 1)]
        io_span = spans[("io", 2)]
        assert trace["parent"] == analyze["id"]
        assert io_span["parent"] == trace["id"]
        assert trace["attrs"]["workload"] == "swim"
        assert parent.counters == {"records": 11}
        assert parent.gauges == {"backend": "numpy"}  # parent wins
        assert parent.points[0]["attrs"]["workload"] == "swim"

    def test_absorb_is_deterministic_in_merge_order(self):
        exports = []
        for name in ("a", "b"):
            w = Collector(clock=FakeClock())
            with w.span("trace", workload=name):
                pass
            exports.append(w.export())
        first = Collector(clock=FakeClock())
        second = Collector(clock=FakeClock())
        for target in (first, second):
            for export in exports:
                target.absorb(export)
        skeleton = lambda c: [(s["name"], s["attrs"], s["parent"])
                              for s in c.spans]
        assert skeleton(first) == skeleton(second)


# ---------------------------------------------------------------------------
# Manifests and the timeline.
# ---------------------------------------------------------------------------

def make_manifest():
    collector = Collector(clock=FakeClock())
    with collector.span("analyze"):
        with collector.span("replay", workload="swim"):
            pass
        with collector.span("replay", workload="go"):
            pass
    collector.add("replay.records", 123)
    collector.gauge("kernels.backend", "numpy")
    collector.point("search.score", 0.5, candidate="x")
    return build_manifest(collector, argv=["runner", "all"],
                          command="run", extra={"note": "test"})


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = make_manifest()
        path = str(tmp_path / "run.json")
        written = write_manifest(manifest, path)
        assert written == [path, str(tmp_path / "run.jsonl")]
        assert events_path(path) == written[1]
        loaded = load_manifest(path)
        assert loaded["counters"] == {"replay.records": 123}
        assert loaded["gauges"] == {"kernels.backend": "numpy"}
        assert loaded["meta"]["argv"] == ["runner", "all"]
        assert loaded["meta"]["note"] == "test"
        assert loaded["kind"] == "repro-run-manifest"
        assert [s["name"] for s in loaded["spans"]] \
            == [s["name"] for s in manifest["spans"]]

    def test_event_stream_lines_are_typed(self, tmp_path):
        manifest = make_manifest()
        path = str(tmp_path / "run.json")
        write_manifest(manifest, path)
        with open(events_path(path), "r", encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        kinds = [e["type"] for e in events]
        assert kinds == ["span", "span", "span", "point", "counter",
                        "gauge"]
        assert events[-2] == {"type": "counter",
                              "name": "replay.records", "value": 123}

    def test_validation_failures(self, tmp_path):
        manifest = make_manifest()
        with pytest.raises(ManifestError):
            validate_manifest([])
        with pytest.raises(ManifestError):
            validate_manifest(dict(manifest, kind="something-else"))
        with pytest.raises(ManifestError):
            validate_manifest(dict(manifest, schema=999))
        with pytest.raises(ManifestError):
            validate_manifest(dict(manifest, wall_seconds="fast"))
        with pytest.raises(ManifestError):
            validate_manifest(dict(manifest,
                                   spans=[{"seconds": 1.0}]))
        path = str(tmp_path / "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        with pytest.raises(ManifestError):
            load_manifest(path)
        with pytest.raises(ManifestError):
            load_manifest(str(tmp_path / "missing.json"))

    def test_stage_rollup_groups_by_path(self):
        manifest = make_manifest()
        stages = {s["path"]: s for s in stage_rollup(manifest)}
        assert set(stages) == {"analyze", "analyze/replay"}
        assert stages["analyze/replay"]["count"] == 2
        assert stages["analyze"]["depth"] == 0
        assert stages["analyze/replay"]["depth"] == 1
        # Rollup is precomputed into the manifest itself.
        assert manifest["stages"] == stage_rollup(manifest)

    def test_span_coverage_counts_roots_only(self):
        manifest = make_manifest()
        # FakeClock: every clock call is one tick, so the root span
        # covers most of the collector's short fake lifetime.
        assert 0.0 < manifest["span_coverage"] <= 1.0
        assert span_coverage({"wall_seconds": 0.0, "spans": []}) == 0.0

    def test_render_timeline_shape(self):
        text = render_timeline(make_manifest())
        lines = text.splitlines()
        assert lines[0].startswith("timeline: ")
        assert any("analyze" in line and "x1" in line for line in lines)
        assert any("replay" in line and "x2" in line for line in lines)


# ---------------------------------------------------------------------------
# The progress line.
# ---------------------------------------------------------------------------

class TtyStream(io.StringIO):
    def isatty(self):
        return True


class TestProgressLine:
    def test_draws_rate_and_eta_on_tty(self):
        stream = TtyStream()
        clock = FakeClock()
        line = ProgressLine(24, stream=stream, clock=clock)
        line.update(0)
        line.update(12)
        line.close()
        text = stream.getvalue()
        # FakeClock: construction is t=0, each update one second later.
        assert "\rcells 0/24 (starting)" in text
        assert "\rcells 12/24 (6.0/s, ETA 2.0s)" in text
        assert text.endswith("\n")

    def test_silent_when_piped(self):
        stream = io.StringIO()    # isatty() is False
        line = ProgressLine(24, stream=stream, clock=FakeClock())
        line.update(12)
        line.close()
        assert stream.getvalue() == ""
        assert not line.enabled

    def test_silent_for_empty_totals(self):
        stream = TtyStream()
        line = ProgressLine(0, stream=stream, clock=FakeClock())
        line.update(0)
        line.close()
        assert stream.getvalue() == ""

    def test_every_update_overwrites_in_place(self):
        stream = TtyStream()
        line = ProgressLine(9, stream=stream, clock=FakeClock())
        line.update(1)
        line.update(2)
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert "\n" not in text             # only close() ends the line


# ---------------------------------------------------------------------------
# Pipeline instrumentation.
# ---------------------------------------------------------------------------

class TestPipelineInstrumentation:
    def test_replay_counters_match_session_stats(self):
        collector = obs.activate(Collector())
        try:
            session = SimulationSession(workloads=("swim",),
                                        cache_dir=None)
            from repro.experiments.runner import build_suite
            suite, _ = build_suite(["table1"])
            session.analyze(suite)
        finally:
            obs.deactivate()
        assert collector.counters["replay.batches"] >= 1
        assert collector.counters["replay.records"] > 0
        replay_spans = [s for s in collector.spans
                        if s["name"] == "replay"]
        assert len(replay_spans) == session.stats.replays
        finish = [s for s in collector.spans if s["name"] == "finish"]
        assert len(finish) == len(replay_spans)
        assert any(s["name"] == "trace" for s in collector.spans)
        # Per-pass analysis timing only exists while observed.
        assert any(name.startswith("analysis.finish_seconds.")
                   for name in collector.counters)

    def test_suite_untimed_without_collector(self, monkeypatch):
        import repro.analysis.suite as suite_module
        from repro.experiments.runner import build_suite

        class NoClock:
            @staticmethod
            def perf_counter():
                raise AssertionError("an unobserved suite read the clock")

        monkeypatch.setattr(suite_module, "time", NoClock)
        suite, by_name = build_suite(["table1"])
        session = SimulationSession(workloads=("swim",),
                                    cache_dir=None)
        session.analyze(suite)
        assert row_for(by_name["table1"].result(), "swim")

    def test_pool_worker_merge_is_deterministic(self, tmp_path):
        def run_once(cache):
            collector = obs.activate(Collector())
            try:
                session = SimulationSession(
                    workloads=("swim", "go"), jobs=2,
                    cache_dir=str(tmp_path / cache))     # cold: pooled
                load(session)
            finally:
                obs.deactivate()
            return collector

        first, second = run_once("first"), run_once("second")

        def skeleton(collector):
            return [(s["name"], s["attrs"].get("workload"),
                     s["attrs"].get("mode")) for s in collector.spans]

        assert skeleton(first) == skeleton(second)
        trace = [s for s in first.spans if s["name"] == "trace"]
        # Configured workload order, not completion order.
        assert [s["attrs"]["workload"] for s in trace] == ["swim", "go"]
        assert all(s["attrs"]["mode"] == "pool" for s in trace)

    def test_kernel_counters_gated_on_collector(self):
        trace = workload_trace(get("swim"), 1, max_instructions=5000)
        batch = trace.batches[0]
        kernels.taken_mask(batch)       # no collector: no error
        collector = obs.activate(Collector())
        try:
            kernels.taken_mask(batch)
            kernels.backward_branch_mask(batch)
            kernels.taken_mask(batch)
        finally:
            obs.deactivate()
        assert collector.counters["kernel.taken_mask"] == 2
        assert collector.counters["kernel.backward_branch_mask"] == 1


# ---------------------------------------------------------------------------
# The runner CLI surface.
# ---------------------------------------------------------------------------

class TestRunnerMetricsCLI:
    ARGS = ["table1", "--workloads", "swim"]

    def test_default_output_byte_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = self.ARGS + ["--cache-dir", cache]
        assert runner_main(args) == 0               # cold: fill cache
        capsys.readouterr()
        assert runner_main(args) == 0               # warm, stock
        stock = capsys.readouterr()
        metrics = str(tmp_path / "run.json")
        assert runner_main(args + ["--metrics", metrics]) == 0
        observed = capsys.readouterr()

        # Byte-identical up to the inherently run-varying duration in
        # the closing "[... analyzed in N.Ns]" line.
        def normalize(text):
            return re.sub(r"analyzed in \d+\.\d+s", "analyzed in ?s",
                          text)

        assert normalize(observed.out) == normalize(stock.out)
        assert "[metrics: %s]" % metrics in observed.err
        assert obs.active() is None                 # fully torn down

    def test_manifest_counters_match_run(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        metrics = str(tmp_path / "run.json")
        args = self.ARGS + ["--cache-dir", cache, "--metrics", metrics]
        assert runner_main(args) == 0
        capsys.readouterr()
        manifest = load_manifest(metrics)
        counters = manifest["counters"]
        assert counters["pipeline.replays"] == 1
        assert counters["pipeline.traced"] == 1     # cold run traced
        assert counters["replay.records"] > 0
        assert counters["cache.bytes_written"] > 0
        assert manifest["gauges"]["kernels.backend"] in ("numpy",
                                                         "stdlib")
        assert manifest["gauges"]["process.peak_rss_mb"] > 0
        assert manifest["span_coverage"] >= 0.9
        paths = [s["path"] for s in manifest["stages"]]
        assert "setup" in paths and "analyze" in paths
        # table1 is finish-only: its workload's replay is skipped and
        # the index it reads is walked lazily inside its finish.
        assert "analyze/finish/replay" in paths
        # A warm rerun is a lookup: the cache hits, and no trace bytes
        # are written or streamed.
        assert runner_main(args) == 0
        capsys.readouterr()
        warm = load_manifest(metrics)["counters"]
        assert warm["pipeline.cache_hits"] == 1
        assert warm["pipeline.replays"] == 0
        assert "cache.bytes_read" not in warm
        assert "cache.bytes_written" not in warm
        # The trace cache holds a last-run digest for trace_cache ls.
        assert os.path.isfile(os.path.join(cache, LAST_RUN_MANIFEST))

    def test_tracer_tiers_reported(self, tmp_path, capsys):
        """A cold run's manifest counts translated blocks and the
        instructions the per-instruction tier ran; obs_report shows
        both."""
        metrics = str(tmp_path / "run.json")
        args = self.ARGS + ["--no-cache", "--metrics", metrics]
        assert runner_main(args) == 0
        capsys.readouterr()
        counters = load_manifest(metrics)["counters"]
        assert counters["cpu.blocks_translated"] > 0
        total = get("swim").default_max_instructions
        assert 0 < counters["cpu.cold_instructions"] < total
        assert load_tool("obs_report.py").main([metrics]) == 0
        out = capsys.readouterr().out
        for name in ("cpu.blocks_translated", "cpu.cold_instructions"):
            assert re.search(r"%s\s+%s" % (re.escape(name),
                                            counters[name]), out)

    def test_cls_sweep_walks_and_shortcuts_counted(self, tmp_path,
                                                   capsys):
        """A cold ablations run counts, per workload and swept CLS
        capacity (2, 4, 8; 16 is the canonical detector), whether the
        canonical index answered it or a stack walked: swim nests
        2 deep, so all three take the shortcut; go nests 7 deep and
        walks capacities 2 and 4, each walk in a ``cls.sweep`` span
        tagged with its workload and capacity."""
        metrics = str(tmp_path / "run.json")
        assert runner_main(["ablations", "--workloads", "swim,go",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--metrics", metrics]) == 0
        capsys.readouterr()
        manifest = load_manifest(metrics)
        counters = manifest["counters"]
        assert counters["cls.sweep_shortcuts"] == 3 + 1
        assert counters["cls.sweep_walks"] == 2
        assert [(span["attrs"]["workload"], span["attrs"]["capacity"])
                for span in manifest["spans"]
                if span["name"] == "cls.sweep"] == [("go", 2), ("go", 4)]

    def test_dataspec_span_and_counters(self, tmp_path, capsys):
        """A cold figure8 run computes one study per workload, each in
        a ``dataspec`` span tagged with its workload, and its counters
        equal the analyzer's own totals."""
        from repro.core.dataspec import DataSpeculationAnalyzer
        from repro.cpu.tracer import ChunkedFullTracer
        from repro.experiments.figure8 import FULL_TRACE_LIMIT

        metrics = str(tmp_path / "run.json")
        assert runner_main(["figure8", "--workloads", "swim,go",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--metrics", metrics]) == 0
        capsys.readouterr()
        manifest = load_manifest(metrics)
        spans = [span for span in manifest["spans"]
                 if span["name"] == "dataspec"]
        assert [span["attrs"]["workload"] for span in spans] \
            == ["swim", "go"]
        instructions = iterations = 0
        for name in ("swim", "go"):
            tracer = ChunkedFullTracer(get(name).program(1),
                                       FULL_TRACE_LIMIT)
            stats = DataSpeculationAnalyzer().analyze_batches(
                tracer.batches(), name)
            instructions += tracer.total_instructions
            iterations += stats.total_iterations
        counters = manifest["counters"]
        assert counters["dataspec.instructions"] == instructions
        assert counters["dataspec.iterations"] == iterations
        assert iterations > 0

    def test_dataspec_block_counters_match_reference(self, tmp_path,
                                                      capsys):
        """The study's block, exposed-read and memory-operation counters
        on swim equal counts taken from the Machine-stepped reference
        trace: blocks end at control instructions, an exposed read is
        the first access to its register in its block, and every load
        and store is one memory operation."""
        from reference.tracer import step
        from repro.cpu import Machine
        from repro.experiments.figure8 import FULL_TRACE_LIMIT
        from repro.isa.instructions import InstrKind

        metrics = str(tmp_path / "run.json")
        assert runner_main(["figure8", "--workloads", "swim",
                            "--cache-dir", str(tmp_path / "cache"),
                            "--metrics", metrics]) == 0
        capsys.readouterr()
        counters = load_manifest(metrics)["counters"]
        machine = Machine(get("swim").program(1))
        blocks = exposed = memory = 0
        in_block = False
        seen = set()
        while (machine.instruction_count < FULL_TRACE_LIMIT
               and not machine.halted):
            (_, _, kind, _, _, rr1, _, rr2, _, wr, mra, _,
             mwa) = step(machine)
            in_block = True
            for reg in (rr1, rr2):
                if reg != -1 and reg not in seen:
                    exposed += 1
                    seen.add(reg)
            seen.add(wr)
            memory += (mra is not None) + (mwa is not None)
            if kind != InstrKind.OTHER:
                blocks += 1
                in_block = False
                seen = set()
        blocks += in_block
        assert (counters["dataspec.blocks"],
                counters["dataspec.exposed_reads"],
                counters["dataspec.memory_ops"]) \
            == (blocks, exposed, memory)
        assert blocks and exposed and memory

    def test_table_walk_counters(self, tmp_path, capsys):
        """figure4 walks each of its four LRU sizes once per workload,
        one step per table row; each walk covers all of its index's
        events, and a warm rerun restores every counter and walks
        none."""
        cache = str(tmp_path / "cache")
        metrics = str(tmp_path / "run.json")
        args = ["figure4", "--workloads", "swim,go", "--cache-dir", cache,
                "--metrics", metrics]
        assert runner_main(args) == 0
        capsys.readouterr()
        manifest = load_manifest(metrics)
        counters = manifest["counters"]
        loaded = load(SimulationSession(workloads=("swim", "go"),
                                        cache_dir=cache))
        events = sum(len(index.columns) for _, index in loaded.values())
        assert counters["tables.walks"] == 8
        assert counters["tables.events"] == 4 * events
        assert 0 < counters["tables.rows"] < counters["tables.events"]
        assert sorted((span["attrs"]["let"], span["attrs"]["policy"])
                      for span in manifest["spans"]
                      if span["name"] == "tables") \
            == sorted([(size, "lru") for size in (2, 4, 8, 16)] * 2)
        assert runner_main(args) == 0
        capsys.readouterr()
        assert load_manifest(metrics)["counters"].get(
            "tables.walks", 0) == 0

    def test_engine_simulate_span_per_computed_run(self, tmp_path,
                                                   capsys):
        """figure5 computes two infinite-TU runs per workload (the full
        trace and its quarter prefix), each in an ``engine.simulate``
        span tagged with its workload and policy; a warm rerun reads
        both from the derived store and opens none."""
        cache = str(tmp_path / "cache")
        metrics = str(tmp_path / "run.json")
        args = ["figure5", "--workloads", "swim,go", "--cache-dir", cache,
                "--metrics", metrics]

        def engine_spans():
            return [(span["attrs"]["workload"], span["attrs"]["policy"])
                    for span in load_manifest(metrics)["spans"]
                    if span["name"] == "engine.simulate"]

        assert runner_main(args) == 0
        capsys.readouterr()
        assert engine_spans() == [("swim", "ALL")] * 2 \
            + [("go", "ALL")] * 2
        assert runner_main(args) == 0
        capsys.readouterr()
        assert engine_spans() == []

    def test_timeline_flag_prints_breakdown(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "c"),
                            "--timeline"]
        assert runner_main(args) == 0
        out = capsys.readouterr().out
        assert "timeline: " in out
        assert "analyze" in out
        assert out.index("[table1 done]") < out.index("timeline: ")

    def test_profile_run_alias_keeps_output(self, tmp_path, capsys):
        args = self.ARGS + ["--cache-dir", str(tmp_path / "c"),
                            "--profile-run", "5"]
        assert runner_main(args) == 0
        out = capsys.readouterr().out
        assert "[cProfile: top 5 by cumulative time]" in out
        assert "cumulative" in out
        assert out.index("[table1 done]") \
            < out.index("[cProfile: top 5 by cumulative time]")


# ---------------------------------------------------------------------------
# Sweep and search --metrics.
# ---------------------------------------------------------------------------

SWEEP_ARGS = ["sweep", "sensitivity", "--workloads", "swim",
              "--max-instructions", "5000", "--spawn-cost", "0",
              "--tus", "2"]


class TestSweepMetricsCLI:
    def test_manifest_counts_cells_and_resume(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cache = str(tmp_path / "cache")
        metrics = str(tmp_path / "sweep.json")
        args = SWEEP_ARGS + ["--store", store, "--cache-dir", cache,
                             "--metrics", metrics]
        assert runner_main(args) == 0
        out = capsys.readouterr().out
        assert "planned" in out
        manifest = load_manifest(metrics)
        counters = manifest["counters"]
        assert manifest["meta"]["command"] == "sweep"
        planned = counters["sweep.cells_planned"]
        assert planned > 0
        assert counters["sweep.cells_executed"] == planned
        assert counters["sweep.cells_resumed"] == 0
        assert counters["sweep.checkpoints"] >= 1
        assert any(s["name"] == "sweep.checkpoint"
                   for s in manifest["spans"])
        assert os.path.isfile(os.path.join(store, LAST_RUN_MANIFEST))

        # Resubmission: everything resumes, nothing executes.
        assert runner_main(args) == 0
        capsys.readouterr()
        resumed = load_manifest(metrics)["counters"]
        assert resumed["sweep.cells_resumed"] == planned
        assert resumed["sweep.cells_executed"] == 0

    def test_progress_line_only_on_tty(self, tmp_path, capsys,
                                       monkeypatch):
        store = str(tmp_path / "store")
        cache = str(tmp_path / "cache")
        args = SWEEP_ARGS + ["--store", store, "--cache-dir", cache]
        # Piped (capsys pseudo-files are not ttys): historical
        # checkpoint lines, no control characters.
        assert runner_main(args) == 0
        captured = capsys.readouterr()
        assert "[swim stored, " in captured.out
        assert "\r" not in captured.err

        # Interactive stderr: the cells line replaces the stdout
        # checkpoint chatter.
        from repro.sweep import SweepStore
        with SweepStore(store) as fresh:
            fresh.clear()           # same grid re-executes from scratch
        tty = TtyStream()
        monkeypatch.setattr("sys.stderr", tty)
        assert runner_main(args) == 0
        captured = capsys.readouterr()
        assert "[swim stored, " not in captured.out
        assert "\rcells " in tty.getvalue()
        assert tty.getvalue().endswith("\n")

    def test_sweeps_ls_shows_last_run_line(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        cache = str(tmp_path / "cache")
        metrics = str(tmp_path / "sweep.json")
        assert runner_main(SWEEP_ARGS + [
            "--store", store, "--cache-dir", cache,
            "--metrics", metrics]) == 0
        capsys.readouterr()
        tool = load_tool("trace_cache.py")
        assert tool.main(["sweeps", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "last instrumented run (sweep): planned" in out
        assert "executed" in out


class TestSearchMetrics:
    def test_loop_counters_track_stats(self, tmp_path):
        from repro.search import SearchSpec, run_search

        spec = SearchSpec(objective="coverage-collapse", budget=3,
                          seed=7, stall_limit=2)
        cache = str(tmp_path / "cache")
        collector = obs.activate(Collector())
        try:
            winners, stats = run_search(spec, store=None,
                                        cache_dir=cache)
        finally:
            obs.deactivate()
        counters = collector.counters
        assert counters["search.candidates"] == stats.evaluated
        assert counters.get("search.memo_hits", 0) == stats.memo_hits
        assert counters.get("search.failures", 0) == stats.failures
        assert counters.get("search.cells_executed", 0) \
            == stats.executed_cells
        evaluate = [s for s in collector.spans
                    if s["name"] == "search.evaluate"]
        assert len(evaluate) == stats.evaluated
        scores = [p for p in collector.points
                  if p["name"] == "search.score"]
        assert len(scores) == stats.evaluated - stats.failures

    def test_cli_writes_manifest(self, tmp_path, capsys):
        metrics = str(tmp_path / "search.json")
        assert runner_main([
            "search", "--objective", "coverage-collapse",
            "--budget", "2", "--seed", "7", "--no-store",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics", metrics]) == 0
        capsys.readouterr()
        manifest = load_manifest(metrics)
        assert manifest["meta"]["command"] == "search"
        assert manifest["meta"]["objective"] == "coverage-collapse"
        assert manifest["counters"]["search.candidates"] \
            == manifest["meta"]["evaluated"]


# ---------------------------------------------------------------------------
# Tools: obs_report.
# ---------------------------------------------------------------------------

class TestObsReport:
    def test_render(self, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        write_manifest(make_manifest(), path)
        tool = load_tool("obs_report.py")
        assert tool.main([path]) == 0
        out = capsys.readouterr().out
        assert "timeline: " in out
        assert "replay.records" in out
        assert "kernels.backend = numpy" in out
        assert "search.score: 1 sample(s)" in out

    def test_diff(self, tmp_path, capsys):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        write_manifest(make_manifest(), a)
        other = make_manifest()
        other["counters"]["replay.records"] = 200
        write_manifest(other, b)
        tool = load_tool("obs_report.py")
        assert tool.main([a, "--diff", b]) == 0
        out = capsys.readouterr().out
        assert "wall:" in out
        assert "replay.records" in out and "123 -> 200" in out

    def test_schema_error_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"kind": "other"}, fh)
        tool = load_tool("obs_report.py")
        assert tool.main([path]) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace_cache ls last-run summary.
# ---------------------------------------------------------------------------

class TestTraceCacheLastRun:
    def test_ls_appends_digest_when_manifest_present(self, tmp_path,
                                                     capsys):
        root = str(tmp_path / "cache")
        os.makedirs(root)
        with open(os.path.join(root, "x-v3-a.cft"), "wb") as fh:
            fh.write(b"CFT3 garbage")
        write_manifest(make_manifest(),
                       os.path.join(root, LAST_RUN_MANIFEST),
                       events=False)
        tool = load_tool("trace_cache.py")
        assert tool.main(["ls", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "last instrumented run (run):" in out

    def test_ls_silent_without_or_with_corrupt_manifest(self, tmp_path,
                                                        capsys):
        root = str(tmp_path / "cache")
        os.makedirs(root)
        with open(os.path.join(root, "x-v3-a.cft"), "wb") as fh:
            fh.write(b"CFT3 garbage")
        tool = load_tool("trace_cache.py")
        assert tool.main(["ls", "--cache-dir", root]) == 0
        assert "last instrumented" not in capsys.readouterr().out
        with open(os.path.join(root, LAST_RUN_MANIFEST), "w",
                  encoding="utf-8") as fh:
            fh.write("{broken")
        assert tool.main(["ls", "--cache-dir", root]) == 0
        assert "last instrumented" not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# RunObserver.
# ---------------------------------------------------------------------------

class TestRunObserver:
    def test_inert_without_flags(self, capsys):
        observer = RunObserver()
        assert not observer.enabled
        with observer:
            assert obs.active() is None
            with observer.profiled():
                pass
        assert observer.finalize() is None
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_metrics_activates_and_writes(self, tmp_path, capsys):
        metrics = str(tmp_path / "run.json")
        copy_dir = str(tmp_path / "cachedir")
        os.makedirs(copy_dir)
        observer = RunObserver(metrics_path=metrics,
                               argv=["runner", "x"],
                               copy_dirs=(copy_dir, None))
        with observer:
            assert obs.active() is observer.collector
            with obs.span("stage"):
                obs.add("n")
        manifest = observer.finalize(extra_meta={"k": "v"})
        assert manifest["meta"]["k"] == "v"
        assert load_manifest(metrics)["counters"] == {"n": 1}
        assert os.path.isfile(os.path.join(copy_dir,
                                           LAST_RUN_MANIFEST))
        assert obs.active() is None
        assert "[metrics:" in capsys.readouterr().err
