"""Integration tests for the experiment harness: every table/figure of
the paper regenerates and keeps its qualitative shape.

These run on a reduced two-workload runner where possible, plus one
full-suite smoke of the cheap experiments; the full suite at default
budgets is timed by loopbench (``loopbench/run.py``).
"""

import os

import pytest

from repro.analysis import analyze_trace
from repro.core.cls import CurrentLoopStack
from repro.cpu import trace_control_flow
from repro.experiments import SimulationSession
from repro.experiments.runner import available_experiments
from repro.lang import Assign, For, Module, Return, Var, compile_module
from repro.search.corpus import frontier_names
from repro.trace.io import dump_cf_batches, open_cf_batches
from repro.workloads.suite import SUITE_ORDER

from capture import load, row_for, run_experiment
from records import slice_batch
from reference.cls_sweep import production_sweep, walked_cls_counts
from reference.events import SingleIteration, from_columns


@pytest.fixture(scope="module")
def small_runner():
    """Two contrasting workloads: one regular, one branchy."""
    return SimulationSession(workloads=("swim", "go"), cache_dir=None)


@pytest.fixture(scope="module")
def full_runner():
    return SimulationSession(cache_dir=None)


class TestRunnerInfrastructure:
    def test_available_experiments_complete(self):
        names = set(available_experiments())
        assert names == {"table1", "figure4", "figure5", "figure6",
                         "figure7", "table2", "figure8", "ablations",
                         "baselines", "extensions"}

    def test_cli_list(self, capsys):
        from repro.experiments.runner import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out

    def test_runner_module_runs_without_runpy_warning(self):
        """``python -m repro.experiments.runner`` finds the runner not
        yet imported (the package does not import it), so runpy raises
        no RuntimeWarning -- not even one promoted to an error."""
        import subprocess
        import sys

        import repro
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path
                   else src + os.pathsep + path)
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.experiments.runner", "--list"],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert "table1" in result.stdout

    def test_reader_closing_early_ends_the_run_quietly(self):
        """``runner ... | head -1``: once the reader has closed the pipe
        the runner exits 141 without a ``BrokenPipeError`` traceback.
        The pipe is shrunk to one page, below the run's output, so the
        runner is still writing when the reader closes."""
        import fcntl
        import subprocess
        import sys

        import repro
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs F_SETPIPE_SZ to shrink the pipe")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src if not path
                   else src + os.pathsep + path)
        read_end, write_end = os.pipe()
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner", "all",
             "--workloads", "swim,go", "--max-instructions", "20000",
             "--no-cache", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
        os.close(write_end)
        with os.fdopen(read_end, "rb", buffering=0) as reader:
            first = b""
            while not first.endswith(b"\n"):
                byte = reader.read(1)
                assert byte, "the runner printed no line"
                first += byte
        _, err = child.communicate(timeout=300)
        assert first.strip()
        assert b"Traceback" not in err and b"BrokenPipe" not in err, err
        assert child.returncode == 141

    def test_sweep_analyses_come_from_the_runner_table(self):
        """A sweep prices and reports through the same class the
        direct run builds: the runner's one table of experiments."""
        from repro.experiments.runner import EXPERIMENTS
        from repro.sweep.spec import SWEEP_EXPERIMENTS, SweepSpec

        for name in SWEEP_EXPERIMENTS:
            spec = SweepSpec(experiment=name, workloads=("swim",))
            assert isinstance(spec.analysis(), EXPERIMENTS[name]), name


class TestTable1:
    def test_rows_and_render(self, small_runner):
        result = run_experiment("table1", small_runner)
        assert len(result.rows) == 2
        assert "Table 1" in result.render()
        swim_row = row_for(result, "swim")
        go_row = row_for(result, "go")
        # swim: long regular loops; go: short irregular ones.
        assert swim_row[3] > 10 * go_row[3]


class TestFigure4:
    def test_hit_ratio_monotone_in_size(self, small_runner):
        result = run_experiment("figure4", small_runner)
        per_size = result.extra["per_size"]
        lets = [per_size[s]["let"] for s in (2, 4, 8, 16)]
        lits = [per_size[s]["lit"] for s in (2, 4, 8, 16)]
        assert all(a <= b + 1e-9 for a, b in zip(lets, lets[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(lits, lits[1:]))

    def test_percentages_in_range(self, small_runner):
        result = run_experiment("figure4", small_runner)
        for _size, let_pct, lit_pct in result.rows:
            assert 0 <= let_pct <= 100
            assert 0 <= lit_pct <= 100


class TestFigure5:
    def test_ideal_tpc_exceeds_one(self, small_runner):
        result = run_experiment("figure5", small_runner)
        for _name, full_tpc, reduced_tpc in result.rows:
            assert full_tpc >= 1.0
            assert reduced_tpc >= 1.0

    def test_prefix_behaves_like_full_run(self, small_runner):
        result = run_experiment("figure5", small_runner)
        for name, full_tpc, reduced_tpc in result.rows:
            ratio = reduced_tpc / full_tpc
            assert 0.25 < ratio < 4.0, name

    def test_regular_code_far_more_ideal_tlp(self, small_runner):
        result = run_experiment("figure5", small_runner)
        assert row_for(result, "swim")[1] > row_for(result, "go")[1]


class TestFigure6:
    def test_tpc_monotone_in_tus(self, small_runner):
        result = run_experiment("figure6", small_runner)
        for row in result.rows:
            tpcs = row[1:]
            assert all(a <= b + 1e-9 for a, b in zip(tpcs, tpcs[1:]))

    def test_avg_row_present(self, small_runner):
        result = run_experiment("figure6", small_runner)
        assert result.rows[0][0] == "AVG"

    def test_tpc_bounded_by_tus(self, small_runner):
        result = run_experiment("figure6", small_runner)
        for row in result.rows[1:]:
            for tus, tpc in zip((2, 4, 8, 16), row[1:]):
                assert 1.0 <= tpc <= tus + 1e-9


class TestFigure7:
    def test_policy_table_shape(self, small_runner):
        result = run_experiment("figure7", small_runner)
        assert [row[0] for row in result.rows] \
            == ["IDLE", "STR", "STR(1)", "STR(2)", "STR(3)"]

    def test_str_at_least_str1_on_full_suite(self, full_runner):
        # The paper's key qualitative claim: STR(i) squashes correct
        # speculation, so plain STR wins on average at small TU counts.
        result = run_experiment("figure7", full_runner)
        averages = result.extra["averages"]
        for tus in (2, 4, 8):
            assert averages[("str", tus)] >= averages[("str(1)", tus)], tus


class TestTable2:
    def test_row_shape_and_ranges(self, small_runner):
        result = run_experiment("table2", small_runner)
        for row in result.rows:
            _name, nspec, tps, hit, instr_verif, tpc = row
            assert nspec > 0
            assert tps >= 1.0
            assert 0 <= hit <= 100
            assert instr_verif > 0
            assert 1.0 <= tpc <= 4.0 + 1e-9

    def test_regular_beats_irregular(self, small_runner):
        result = run_experiment("table2", small_runner)
        assert row_for(result, "swim")[5] > row_for(result, "go")[5]


class TestFigure8:
    def test_suite_row_aggregates(self, small_runner):
        result = run_experiment("figure8", small_runner)
        assert result.rows[0][0] == "SUITE"
        assert len(result.rows) == 3

    def test_percentages_valid(self, small_runner):
        result = run_experiment("figure8", small_runner)
        for row in result.rows:
            assert all(0.0 <= v <= 100.0 for v in row[1:])

    def test_qualitative_ordering(self, small_runner):
        result = run_experiment("figure8", small_runner)
        suite_row = row_for(result, "SUITE")
        _, _same, lr, lm, all_lr, all_lm, all_data = suite_row
        assert lr > lm              # registers predict better than memory
        assert all_lr >= all_lm     # and per-iteration all-correct too
        assert all_data <= all_lm + 1e-9

    def test_regular_code_has_stable_paths(self, small_runner):
        result = run_experiment("figure8", small_runner)
        assert row_for(result, "swim")[1] > row_for(result, "go")[1]


class TestAblations:
    @pytest.fixture(scope="class")
    def ablations(self, small_runner):
        return run_experiment("ablations", small_runner)

    def test_all_three_ablations_run(self, ablations):
        assert len(ablations) == 3

    def test_nesting_aware_close_to_lru(self, ablations):
        result = ablations[0]
        for _size, let_lru, let_aware, lit_lru, lit_aware in result.rows:
            assert abs(let_lru - let_aware) < 25
            assert abs(lit_lru - lit_aware) < 25

    def test_waiting_tpc_upper_bounds_executing(self, ablations):
        result = ablations[1]
        for _name, incl, excl in result.rows:
            assert excl <= incl + 1e-9

    def test_cls_overflow_decreases_with_capacity(self, ablations):
        result = ablations[2]
        drops = [row[1] for row in result.rows]
        assert all(a >= b for a, b in zip(drops, drops[1:]))
        assert drops[-1] == 0        # 16 entries never overflow


class TestCLSCapacityShortcut:
    """A capacity the canonical loop index proves cannot overflow takes
    the canonical counts without a walk; every count, shortcut or
    walked, equals a real bare-stack walk."""

    CAPACITIES = tuple(range(1, 33))
    BUDGET = 20_000
    GROUPS = {
        "analogs": SUITE_ORDER,
        "frontier": tuple(frontier_names()),
        "synthetic": tuple("synth-%s-%d" % (profile, seed)
                           for profile in ("deep-nest", "tiny-loops")
                           for seed in range(1, 6)),
    }

    @pytest.fixture(scope="class")
    def walked(self):
        """Reference counts per (workload, capacity), shared by both
        session capacities."""
        return {}

    @pytest.mark.parametrize("session_capacity", (4, 16))
    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_counts_equal_a_real_walk(self, walked, group,
                                      session_capacity):
        names = self.GROUPS[group]
        session = SimulationSession(workloads=names, cache_dir=None,
                                    max_instructions=self.BUDGET,
                                    cls_capacity=session_capacity)
        counts, (walks, shortcuts) = production_sweep(
            session.analyze, self.CAPACITIES)
        for name, (trace, _) in load(session).items():
            batches = trace.batches
            for capacity in self.CAPACITIES:
                key = (name, capacity)
                if key not in walked:
                    walked[key] = walked_cls_counts(batches, capacity)
                assert counts[key] == walked[key], key
        swept = len(names) * (len(self.CAPACITIES) - 1)
        assert walks + shortcuts == swept
        assert shortcuts > 0

    def test_single_iteration_depth_does_not_block_the_shortcut(self):
        """A one-iteration inner loop reports depth 2 but pushes
        nothing, so a 1-entry CLS never overflows here: the sweep takes
        the shortcut, and a real walk agrees."""
        m = Module("t")
        m.function("main", [], [
            Assign("acc", 0),
            For("i", 0, 6, [
                For("j", 0, 1, [Assign("acc", Var("acc") + Var("j"))]),
            ]),
            Return(Var("acc")),
        ])
        trace = trace_control_flow(compile_module(m), 100_000)
        assert trace.halted
        counts, counters = production_sweep(
            lambda suite: analyze_trace(suite, trace, name="t"), (1,))
        batches = trace.batches
        stack = CurrentLoopStack(capacity=16)
        for batch in batches:
            stack.process_batch(batch)
        events = from_columns(stack.columns)
        singles = [e.depth for e in events
                   if type(e) is SingleIteration]
        assert singles and max(singles) == 2
        assert counters == (0, 1)
        assert counts["t", 1] == walked_cls_counts(batches, 1) \
            == [0, stack.next_exec_id]

    def test_held_batches_outlive_a_multi_chunk_cached_stream(
            self, tmp_path):
        """Over a warm trace cache the sweep holds batches decoded from
        the v3 stream; they must stay valid after the stream moves on
        to the next chunk."""
        cache_dir = str(tmp_path)
        names = ("go", "applu")

        def session():
            return SimulationSession(workloads=names,
                                     cache_dir=cache_dir,
                                     max_instructions=self.BUDGET)

        session().ensure_traced()
        chunks = []
        for path in sorted(os.listdir(cache_dir)):
            if not path.endswith(".cft"):
                continue
            # Rewrite each entry in 97-record chunks.
            path = os.path.join(cache_dir, path)
            header, stream = open_cf_batches(path)
            small = [slice_batch(batch, start, min(start + 97, len(batch)))
                     for batch in stream
                     for start in range(0, len(batch), 97)]
            dump_cf_batches(header, small, path)
            chunks.append(len(small))
        assert len(chunks) == len(names) and min(chunks) > 10

        warm = session()
        counts, (walks, _) = production_sweep(warm.analyze, (2, 4))
        assert warm.stats.cache_hits == len(names)
        assert warm.stats.replays == len(names)
        assert walks > 0
        for name, (trace, _) in load(warm).items():
            batches = trace.batches
            for capacity in (2, 4):
                assert counts[name, capacity] \
                    == walked_cls_counts(batches, capacity)


class TestStoredClsSweep:
    def test_stored_counts_equal_a_real_walk(self, tmp_path):
        """A cold run's stored ``cls-sweep/cap<N>/c16`` entries -- the
        session's own capacity included, whose drops the ablation
        counts in the canonical loop index -- equal a bare walk."""
        import json
        import sqlite3

        from repro.analysis import AnalysisSuite
        from repro.experiments.ablations import AblationsAnalysis
        from repro.pipeline import TraceCache
        from repro.pipeline.cache import program_fingerprint
        from repro.pipeline.derived import DB_NAME
        from repro.workloads import get

        budget = 20_000
        cache_dir = str(tmp_path)
        session = SimulationSession(cache_dir=cache_dir,
                                    max_instructions=budget)
        session.analyze(AnalysisSuite([AblationsAnalysis()]))
        conn = sqlite3.connect(os.path.join(cache_dir, "derived",
                                            DB_NAME))
        stored = {(trace_key, key): json.loads(value)
                  for trace_key, key, value in conn.execute(
                      "SELECT trace_key, key, value FROM derived "
                      "WHERE key LIKE 'cls-sweep/%'")}
        conn.close()
        assert len(stored) == 4 * len(SUITE_ORDER)
        for name, (trace, _) in load(session).items():
            program = get(name).program(1)
            trace_key = TraceCache.key(name, 1, budget,
                                       program_fingerprint(program))
            for capacity in (2, 4, 8, 16):
                key = "cls-sweep/cap%d/c16" % capacity
                assert stored[trace_key, key] \
                    == walked_cls_counts(trace.batches, capacity), \
                    (name, capacity)


class TestReportRendering:
    def test_render_contains_headers(self, small_runner):
        result = run_experiment("table1", small_runner)
        text = result.render()
        for header in result.headers:
            assert str(header) in text

    def test_row_for_missing_key(self, small_runner):
        result = run_experiment("table1", small_runner)
        with pytest.raises(KeyError):
            row_for(result, "spice")

    def test_program_column(self, small_runner):
        result = run_experiment("table1", small_runner)
        assert [row[0] for row in result.rows] == ["swim", "go"]


class TestExperimentSelection:
    """'all' composes with explicit names; duplicates run once."""

    def test_all_alone_expands(self):
        from repro.experiments.runner import select_experiments
        experiments = available_experiments()
        assert select_experiments(["all"], experiments) \
            == list(experiments)

    def test_all_composes_with_names(self):
        from repro.experiments.runner import select_experiments
        experiments = available_experiments()
        selected = select_experiments(["table2", "all"], experiments)
        assert selected[0] == "table2"
        assert selected.count("table2") == 1
        assert set(selected) == set(experiments)

    def test_duplicates_deduplicated(self):
        from repro.experiments.runner import select_experiments
        experiments = available_experiments()
        assert select_experiments(["table1", "table1", "figure4"],
                                  experiments) == ["table1", "figure4"]

    def test_unknown_name_rejected(self):
        from repro.experiments.runner import select_experiments
        with pytest.raises(ValueError, match="spice"):
            select_experiments(["table1", "spice"],
                               available_experiments())

    def test_cli_list_includes_workloads(self, capsys):
        from repro.experiments.runner import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "swim" in out and "go" in out

    def test_cli_rejects_unknown_workload(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table1", "--workloads", "spice"])

    def test_cli_csv_format(self, capsys):
        from repro.experiments.runner import main
        assert main(["table1", "--workloads", "mgrid",
                     "--no-cache", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("program,")
        assert "mgrid" in out

    def test_cli_json_format_output_dir(self, tmp_path, capsys):
        import json
        from repro.experiments.runner import main
        out_dir = str(tmp_path / "results")
        assert main(["table1", "ablations", "--workloads", "mgrid",
                     "--no-cache", "--format", "json",
                     "--output-dir", out_dir]) == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["ablations-1.json", "ablations-2.json",
                         "ablations-3.json", "table1.json"]
        data = json.loads((tmp_path / "results" / "table1.json")
                          .read_text())
        assert data["headers"][0] == "program"
        assert data["rows"][0][0] == "mgrid"
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_cli_text_output_dir(self, tmp_path, capsys):
        from repro.experiments.runner import main
        out_dir = str(tmp_path / "results")
        assert main(["table1", "--workloads", "mgrid", "--no-cache",
                     "--output-dir", out_dir]) == 0
        text = (tmp_path / "results" / "table1.txt").read_text()
        assert "Table 1" in text
        assert "mgrid" in text
