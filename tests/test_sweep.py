"""The sweep subsystem: spec expansion, the on-disk store, the
orchestrator's checkpoint/resume guarantees, and query-layer reports
that are byte-identical to the direct experiment runs.

The orchestrator tests run tiny two-workload grids with a shared
module-scoped trace cache, so every test after the first prices cells
against warm traces.
"""

import importlib.util
import json
import os
import sqlite3

import pytest

from repro.experiments.runner import main as runner_main
from repro.sweep import SweepSpec, SweepStore, SweepStoreError, \
    expand_cells, run_sweep, sweep_report
from repro.sweep.spec import KIND_LOOPSTATS, KIND_SIM
from repro.sweep.store import DB_NAME, SWEEP_SCHEMA_VERSION

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: The grid every orchestrator test reuses (24 cells over two
#: contrasting workloads; small instruction budget keeps it fast).
GRID = dict(experiment="sensitivity", workloads=("swim", "go"),
            max_instructions=5000, spawn_costs=(0, 8),
            tu_counts=(2, 4))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One warm trace/derived cache shared by the whole module."""
    return str(tmp_path_factory.mktemp("sweep-cache"))


def make_store(tmp_path, name="store"):
    return SweepStore(str(tmp_path / name))


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(experiment="figure9", workloads=("swim",))
        with pytest.raises(ValueError):
            SweepSpec(experiment="sensitivity", workloads=())
        with pytest.raises(ValueError):
            SweepSpec(experiment="sensitivity", workloads=("swim",),
                      spawn_costs=(-1,))
        with pytest.raises(ValueError):
            SweepSpec(experiment="sensitivity", workloads=("swim",),
                      tu_counts=(0,))
        with pytest.raises(ValueError):
            SweepSpec(experiment="sensitivity", workloads=("swim",),
                      policies=("no-such-policy",))
        with pytest.raises(ValueError):
            SweepSpec(experiment="characterize", workloads=("swim",),
                      num_tus=0)

    def test_json_round_trip(self):
        spec = SweepSpec(**GRID)
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec
        assert again.sweep_id == spec.sweep_id

    def test_sweep_id_is_content_derived(self):
        spec = SweepSpec(**GRID)
        assert SweepSpec(**GRID).sweep_id == spec.sweep_id
        other = dict(GRID, spawn_costs=(0, 16))
        assert SweepSpec(**other).sweep_id != spec.sweep_id

    def test_axis_normalization_shares_the_id(self):
        # The direct experiment sorts and de-duplicates cost lists, so
        # the spec must too -- otherwise the same grid got two ids.
        spec = SweepSpec(**dict(GRID, spawn_costs=(8, 0, 8)))
        assert spec.spawn_costs == (0, 8)
        assert spec.sweep_id == SweepSpec(**GRID).sweep_id

    def test_malformed_json_is_a_clean_error(self):
        with pytest.raises(ValueError):
            SweepSpec.from_json("not json")
        with pytest.raises(ValueError):
            SweepSpec.from_json('{"experiment": "sensitivity"}')


class TestExpandCells:
    def test_deterministic_and_complete(self):
        spec = SweepSpec(**GRID)
        cells = expand_cells(spec)
        assert [c.key for c in cells] == \
            [c.key for c in expand_cells(spec)]
        # 2 workloads x 3 policies x 2 TU counts x 2 spawn costs.
        assert len(cells) == 24
        assert all(c.kind == KIND_SIM for c in cells)
        assert len({c.key for c in cells}) == len(cells)

    def test_spawn_zero_collapses_onto_ideal(self):
        spec = SweepSpec(**GRID)
        zeros = [c for c in expand_cells(spec) if c.spawn_cost == 0]
        assert zeros and all(c.timing == "ideal" for c in zeros)

    def test_characterize_grid(self):
        spec = SweepSpec(experiment="characterize",
                         workloads=("swim",), max_instructions=5000)
        cells = expand_cells(spec)
        kinds = [c.kind for c in cells]
        assert kinds.count(KIND_LOOPSTATS) == 1
        assert kinds.count(KIND_SIM) == len(spec.policies)

    def test_overlapping_grids_share_cell_keys(self):
        # characterize's ideal sims are the same rows as sensitivity's
        # spawn-cost-0 cells at the same TU count, so overlapping
        # sweeps reuse each other's stored work.
        sens = expand_cells(SweepSpec(**dict(GRID, workloads=("swim",),
                                             tu_counts=(4,))))
        char = expand_cells(SweepSpec(
            experiment="characterize", workloads=("swim",),
            max_instructions=5000))
        sens_keys = {c.key for c in sens if c.spawn_cost == 0}
        char_keys = {c.key for c in char if c.kind == KIND_SIM}
        assert char_keys == sens_keys

    def test_figure_and_table_grids(self):
        # figure6 is STR over the TU axis, figure7 the full policy x
        # TU grid, table2 one STR(3) cell -- all ideal-machine cells,
        # so figure6's cells and table2's cell are subsets of an
        # enclosing figure7 grid.
        common = dict(workloads=("swim",), max_instructions=5000)
        fig6 = expand_cells(SweepSpec(experiment="figure6", **common))
        fig7 = expand_cells(SweepSpec(
            experiment="figure7", **common,
            policies=("idle", "str", "str(1)", "str(2)", "str(3)")))
        tab2 = expand_cells(SweepSpec(experiment="table2", **common))
        assert len(fig6) == 4 and all(
            c.policy == "str" and c.timing == "ideal" for c in fig6)
        assert len(fig7) == 20
        assert len(tab2) == 1 and tab2[0].policy == "str(3)" \
            and tab2[0].tus == 4
        fig7_keys = {c.key for c in fig7}
        assert {c.key for c in fig6} <= fig7_keys
        assert tab2[0].key in fig7_keys


class TestSweepStore:
    def test_round_trip(self, tmp_path):
        spec = SweepSpec(**GRID)
        cells = expand_cells(spec)
        with make_store(tmp_path) as store:
            store.record_sweep(spec, [c.key for c in cells])
            assert store.spec_for(spec.sweep_id) == spec
            assert store.spec_for(spec.sweep_id[:6]) == spec
            assert store.latest_sweep_id() == spec.sweep_id
            assert store.sweep_total(spec.sweep_id) == len(cells)
            row = {"cell_key": cells[0].key,
                   "trace_key": cells[0].trace_key,
                   "workload": "swim", "scale": 1,
                   "max_instructions": 5000, "cls_capacity": 16,
                   "kind": KIND_SIM, "timing": "ideal",
                   "policy": "idle", "tus": 2, "status": "done",
                   "tpc": 1.25, "hit_ratio": 0.5, "speedup": 1.25,
                   "overhead_cycles": 0,
                   "detail": json.dumps({"x": 1}), "error": None}
            store.put_cells([row])
            got = store.get_cells(cell_keys=[cells[0].key])
            assert len(got) == 1 and got[0].tpc == 1.25
            assert got[0].detail_json == {"x": 1}
            keys = [c.key for c in cells]
            assert store.done_keys(keys) == {cells[0].key}

    def test_failed_rows_are_not_done(self, tmp_path):
        spec = SweepSpec(**GRID)
        cell = expand_cells(spec)[0]
        with make_store(tmp_path) as store:
            store.put_cells([{"cell_key": cell.key,
                              "trace_key": cell.trace_key,
                              "workload": "swim", "scale": 1,
                              "max_instructions": 5000,
                              "cls_capacity": 16, "kind": KIND_SIM,
                              "status": "failed",
                              "error": "ValueError: boom"}])
            assert store.done_keys([cell.key]) == set()
            assert store.counts() == (1, 0, 1)

    def test_missing_and_ambiguous_sweep_ids(self, tmp_path):
        with make_store(tmp_path) as store:
            with pytest.raises(SweepStoreError):
                store.spec_for("feedface")
            a = SweepSpec(**GRID)
            b = SweepSpec(**dict(GRID, spawn_costs=(0, 16)))
            store.record_sweep(a, [])
            store.record_sweep(b, [])
            with pytest.raises(SweepStoreError):
                store.spec_for("")       # prefix matching both

    def test_version_mismatch_is_a_clean_error(self, tmp_path):
        with make_store(tmp_path) as store:
            store.record_sweep(SweepSpec(**GRID), [])
        path = str(tmp_path / "store" / DB_NAME)
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = %d"
                     % (SWEEP_SCHEMA_VERSION + 1))
        conn.commit()
        conn.close()
        store = make_store(tmp_path)
        with pytest.raises(SweepStoreError, match="schema version"):
            store.sweeps()
        # clear() must still work on a store it cannot open.
        assert store.clear()
        with make_store(tmp_path) as again:
            assert again.sweeps() == []

    def test_corrupt_file_is_a_clean_error(self, tmp_path):
        root = tmp_path / "store"
        root.mkdir()
        (root / DB_NAME).write_bytes(b"not a sqlite database at all")
        store = SweepStore(str(root))
        with pytest.raises(SweepStoreError, match="corrupt"):
            store.sweeps()
        assert store.clear()

    def test_prune_drops_failed_and_orphaned(self, tmp_path):
        spec = SweepSpec(**GRID)
        cells = expand_cells(spec)
        with make_store(tmp_path) as store:
            store.record_sweep(spec, [cells[0].key])
            base = {"trace_key": "t", "workload": "swim", "scale": 1,
                    "max_instructions": 5000, "cls_capacity": 16,
                    "kind": KIND_SIM}
            store.put_cells([
                dict(base, cell_key=cells[0].key, status="done"),
                dict(base, cell_key=cells[1].key, status="done"),
                dict(base, cell_key=cells[2].key, status="failed",
                     error="x"),
            ])
            assert store.prune(dry_run=True) == (1, 1)
            assert store.counts() == (3, 2, 1)      # dry run: no-op
            assert store.prune() == (1, 1)
            left = store.get_cells()
            assert [r.cell_key for r in left] == [cells[0].key]


class TestOrchestrator:
    def test_cold_run_then_resubmit_executes_zero(self, tmp_path,
                                                  cache_dir):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path) as store:
            stats = run_sweep(spec, store, cache_dir=cache_dir)
            assert (stats.planned, stats.skipped, stats.executed,
                    stats.failed) == (24, 0, 24, 0)
            again = run_sweep(spec, store, cache_dir=cache_dir)
            assert (again.skipped, again.executed) == (24, 0)
            assert again.checkpoints == 0

    def test_resubmitted_cells_are_derived_lookups(self, tmp_path,
                                                   monkeypatch):
        """A fresh store over a warm derived store re-executes every
        cell -- loop-stats cells included -- without building an
        index."""
        from repro.core.detector import LoopDetector

        spec = SweepSpec(experiment="characterize",
                         workloads=("swim", "go"), max_instructions=5000)
        cache = str(tmp_path / "cache")
        with make_store(tmp_path, "first") as store:
            run_sweep(spec, store, cache_dir=cache)
            first = sorted((r.cell_key, r.status, r.detail_json and
                            json.dumps(r.detail_json, sort_keys=True))
                           for r in store.get_cells())

        def boom(*args, **kwargs):
            raise AssertionError("an index was built")

        monkeypatch.setattr(LoopDetector, "run_batches", boom)
        with make_store(tmp_path, "second") as store:
            stats = run_sweep(spec, store, cache_dir=cache)
            assert (stats.executed, stats.failed) == (stats.planned, 0)
            second = sorted((r.cell_key, r.status, r.detail_json and
                             json.dumps(r.detail_json, sort_keys=True))
                            for r in store.get_cells())
        assert second == first
        assert any(KIND_LOOPSTATS in key for key, _, _ in first)
        # Direct runs (table1, characterize) persist under the cell's
        # key, so they pre-populate loop-stats cells too.
        from repro.analysis.passes import LOOPSTATS_PARTS
        from repro.pipeline.derived import derived_cls_key
        from repro.sweep.spec import loopstats_cell_suffix
        assert loopstats_cell_suffix(16) \
            == derived_cls_key(16, *LOOPSTATS_PARTS)

    def test_dry_run_registers_but_executes_nothing(self, tmp_path):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path) as store:
            stats = run_sweep(spec, store, dry_run=True)
            assert (stats.executed, stats.failed) == (0, 0)
            assert store.sweep_total(spec.sweep_id) == 24
            assert store.counts(spec.sweep_id) == (24, 0, 0)

    def test_interrupt_resume_runs_exactly_the_missing_cells(
            self, tmp_path, cache_dir):
        """Kill the sweep after the first checkpoint, resubmit, and
        the rerun must execute exactly the missing cells and render
        the same report as an uninterrupted run."""
        spec = SweepSpec(**GRID)
        with make_store(tmp_path, "uninterrupted") as store:
            run_sweep(spec, store, cache_dir=cache_dir)
            baseline = [r.render() for r in sweep_report(store, spec)]

        def interrupt(_name, _finished, _total):
            raise KeyboardInterrupt

        with make_store(tmp_path, "interrupted") as store:
            with pytest.raises(KeyboardInterrupt):
                run_sweep(spec, store, cache_dir=cache_dir,
                          progress=interrupt)
            # The first workload's checkpoint committed before the
            # interrupt: exactly half the grid is stored.
            _, done, _ = store.counts()
            assert done == 12
            resumed = run_sweep(spec, store, cache_dir=cache_dir)
            assert (resumed.skipped, resumed.executed) == (12, 12)
            report = [r.render() for r in sweep_report(store, spec)]
            assert report == baseline

    def test_failed_cells_record_and_retry(self, tmp_path, cache_dir,
                                           monkeypatch):
        spec = SweepSpec(**dict(GRID, workloads=("swim",)))
        import repro.core.speculation as speculation

        real = speculation.simulate
        real_grid = speculation.simulate_grid

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        with make_store(tmp_path) as store:
            monkeypatch.setattr(speculation, "simulate", boom)
            monkeypatch.setattr(speculation, "simulate_grid", boom)
            stats = run_sweep(spec, store)      # no cache: must simulate
            assert stats.failed == 12 and stats.executed == 0
            failed = store.get_cells(status="failed")
            assert len(failed) == 12
            assert "RuntimeError: injected" in failed[0].error
            with pytest.raises(ValueError, match="incomplete"):
                sweep_report(store, spec)
            monkeypatch.setattr(speculation, "simulate", real)
            monkeypatch.setattr(speculation, "simulate_grid", real_grid)
            retried = run_sweep(spec, store, cache_dir=cache_dir)
            assert retried.executed == 12 and retried.failed == 0
            assert store.get_cells(status="failed") == []

    def test_checkpoint_value_is_validated(self, tmp_path):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path) as store:
            with pytest.raises(ValueError, match="checkpoint"):
                run_sweep(spec, store, checkpoint="bogus")

    def test_cell_checkpoint_stores_identical_rows(self, tmp_path,
                                                   cache_dir):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path, "group") as store:
            group = run_sweep(spec, store, cache_dir=cache_dir)
            baseline = [r.render() for r in sweep_report(store, spec)]
        with make_store(tmp_path, "cell") as store:
            cell = run_sweep(spec, store, cache_dir=cache_dir,
                             checkpoint="cell")
            report = [r.render() for r in sweep_report(store, spec)]
        assert cell.executed == group.executed == 24
        # One commit per cell instead of one per workload group.
        assert (group.checkpoints, cell.checkpoints) == (2, 24)
        assert report == baseline

    def test_cell_checkpoint_interrupt_loses_at_most_one_cell(
            self, tmp_path, cache_dir):
        """Interrupt mid-workload under per-cell checkpointing: every
        already-committed cell survives and the resume executes
        exactly the rest."""
        spec = SweepSpec(**GRID)

        def interrupt(_name, finished, _total):
            if finished == 3:
                raise KeyboardInterrupt

        with make_store(tmp_path) as store:
            with pytest.raises(KeyboardInterrupt):
                run_sweep(spec, store, cache_dir=cache_dir,
                          checkpoint="cell", progress=interrupt)
            _, done, _ = store.counts()
            assert done == 3
            resumed = run_sweep(spec, store, cache_dir=cache_dir,
                                checkpoint="cell")
            assert (resumed.skipped, resumed.executed) == (3, 21)

    def test_pool_path_matches_inline(self, tmp_path, cache_dir):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path, "inline") as store:
            run_sweep(spec, store, jobs=1, cache_dir=cache_dir)
            inline = [r.render() for r in sweep_report(store, spec)]
        with make_store(tmp_path, "pool") as store:
            run_sweep(spec, store, jobs=2, cache_dir=cache_dir)
            pooled = [r.render() for r in sweep_report(store, spec)]
        assert pooled == inline


class TestByteIdentity:
    """The acceptance criterion: a store-backed query report renders
    byte-identical to the direct experiment over the same grid."""

    def _direct(self, tmp_path, cache_dir, name, args):
        out = tmp_path / ("direct-" + name)
        out.mkdir()
        assert runner_main([name] + args +
                           ["--cache-dir", cache_dir,
                            "--output-dir", str(out)]) == 0
        return {p.name: p.read_text() for p in out.iterdir()}

    def _query(self, tmp_path, cache_dir, store, name, args):
        out = tmp_path / ("query-" + name)
        out.mkdir()
        assert runner_main(["sweep", name] + args +
                           ["--cache-dir", cache_dir,
                            "--store", store]) == 0
        assert runner_main(["query", "--report", "--store", store,
                            "--output-dir", str(out)]) == 0
        return {p.name: p.read_text() for p in out.iterdir()}

    def test_sensitivity(self, tmp_path, cache_dir):
        args = ["--workloads", "swim,go", "--max-instructions", "5000",
                "--spawn-cost", "0,8", "--tus", "2,4"]
        direct = self._direct(tmp_path, cache_dir, "sensitivity", args)
        query = self._query(tmp_path, cache_dir,
                            str(tmp_path / "store"), "sensitivity",
                            args)
        assert query == direct
        assert set(direct) == {"sensitivity-1.txt",
                               "sensitivity-2.txt"}

    def test_characterize(self, tmp_path, cache_dir):
        args = ["--workloads", "swim,go", "--max-instructions", "5000"]
        direct = self._direct(tmp_path, cache_dir, "characterize", args)
        query = self._query(tmp_path, cache_dir,
                            str(tmp_path / "store"), "characterize",
                            args)
        assert query == direct

    @pytest.mark.parametrize("experiment",
                             ("figure6", "figure7", "table2"))
    def test_figures_and_table2(self, tmp_path, cache_dir, experiment):
        args = ["--workloads", "swim,go", "--max-instructions", "5000"]
        direct = self._direct(tmp_path, cache_dir, experiment, args)
        query = self._query(tmp_path, cache_dir,
                            str(tmp_path / "store"), experiment, args)
        assert query == direct


class TestSweepCLI:
    def test_sweep_rejects_bad_grids(self, tmp_path, capsys):
        store = ["--store", str(tmp_path / "store")]
        with pytest.raises(SystemExit):
            runner_main(["sweep"] + store)              # no experiment
        with pytest.raises(SystemExit):
            runner_main(["sweep", "characterize", "--spawn-cost", "0,8"]
                        + store)
        with pytest.raises(SystemExit):
            runner_main(["sweep", "sensitivity", "--num-tus", "8"]
                        + store)
        with pytest.raises(SystemExit):
            runner_main(["sweep", "--resume", "abc", "sensitivity"]
                        + store)
        capsys.readouterr()

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys,
                                          tmp_path):
        import repro.sweep.cli as cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_sweep", interrupted)
        code = runner_main(["sweep", "sensitivity", "--workloads",
                            "swim", "--store",
                            str(tmp_path / "store")])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err

    def test_query_list_group_and_filters(self, tmp_path, cache_dir,
                                          capsys):
        store = str(tmp_path / "store")
        assert runner_main(
            ["sweep", "sensitivity", "--workloads", "swim",
             "--max-instructions", "5000", "--spawn-cost", "0,8",
             "--tus", "2,4", "--cache-dir", cache_dir,
             "--store", store]) == 0
        capsys.readouterr()
        assert runner_main(["query", "--store", store, "--list"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity" in out
        assert runner_main(["query", "--store", store, "--group-by",
                            "policy"]) == 0
        out = capsys.readouterr().out
        assert "str(3)" in out
        assert runner_main(["query", "--store", store, "--workloads",
                            "swim", "--tus", "4", "--format",
                            "csv"]) == 0
        out = capsys.readouterr().out
        assert "swim,sim,ideal" in out

    def test_query_errors_cleanly_on_empty_store(self, tmp_path,
                                                 capsys):
        code = runner_main(["query", "--report", "--store",
                            str(tmp_path / "store")])
        assert code == 1
        assert "no sweeps" in capsys.readouterr().err


class TestSweepsTool:
    """tools/trace_cache.py sweeps ls|prune|clear."""

    def _tool(self):
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "trace_cache.py")
        spec = importlib.util.spec_from_file_location(
            "trace_cache_tool", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _populate(self, root):
        spec = SweepSpec(**GRID)
        cells = expand_cells(spec)
        with SweepStore(root) as store:
            store.record_sweep(spec, [c.key for c in cells])
            rows = []
            for cell in cells:
                rows.append({
                    "cell_key": cell.key, "trace_key": cell.trace_key,
                    "workload": cell.workload, "scale": cell.scale,
                    "max_instructions": cell.max_instructions,
                    "cls_capacity": cell.cls_capacity,
                    "kind": cell.kind, "timing": cell.timing,
                    "policy": cell.policy, "tus": cell.tus,
                    "status": "done", "tpc": 1.0, "hit_ratio": 0.5,
                    "speedup": 1.0})
            rows[-1].update(status="failed", error="ValueError: x")
            store.put_cells(rows)
        return spec

    def test_ls_matches_golden(self, tmp_path, capsys):
        """The `sweeps ls` output is a golden fixture: no timestamps,
        no sizes, content-derived ids, so it is byte-stable."""
        tool = self._tool()
        root = str(tmp_path / "store")
        self._populate(root)
        assert tool.main(["sweeps", "ls", "--store", root]) == 0
        out = capsys.readouterr().out.replace(root, "<store>")
        golden = os.path.join(FIXTURES, "sweeps_ls.txt")
        with open(golden, "r", encoding="utf-8") as fh:
            assert out == fh.read()

    def test_prune_and_clear(self, tmp_path, capsys):
        tool = self._tool()
        root = str(tmp_path / "store")
        self._populate(root)
        assert tool.main(["sweeps", "prune", "--store", root,
                          "--dry-run"]) == 0
        assert "would prune 1 failed" in capsys.readouterr().out
        assert tool.main(["sweeps", "prune", "--store", root]) == 0
        capsys.readouterr()
        with SweepStore(root) as store:
            # The failed row is gone from cells; membership remains so
            # resubmission re-plans (and retries) the pruned cell.
            assert store.counts() == (23, 23, 0)
        assert tool.main(["sweeps", "clear", "--store", root]) == 0
        capsys.readouterr()
        assert not os.path.exists(os.path.join(root, DB_NAME))

    def test_ls_empty_store(self, tmp_path, capsys):
        tool = self._tool()
        root = str(tmp_path / "store")
        assert tool.main(["sweeps", "ls", "--store", root]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_sweeps_requires_an_action(self, tmp_path, capsys):
        tool = self._tool()
        with pytest.raises(SystemExit):
            tool.main(["sweeps", "--store", str(tmp_path / "store")])
        capsys.readouterr()
