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
import shutil
import sqlite3

import pytest

from repro.experiments.runner import main as runner_main
from repro.sweep import SweepSpec, SweepStore, SweepStoreError, \
    expand_cells, run_sweep, sweep_report
from repro.sweep.spec import KIND_LOOPSTATS, KIND_SIM, SWEEP_EXPERIMENTS
from repro.sweep.store import CELL_FIELDS, DB_NAME, SWEEP_SCHEMA_VERSION

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

    def test_repeated_policies_fold_once(self):
        # Policies keep their order (it is the report's row order), but
        # a repeated one is folded like a repeated integer axis value.
        spec = SweepSpec(**dict(GRID, policies=("str", "idle", "str")))
        assert spec.policies == ("str", "idle")
        assert spec.sweep_id == SweepSpec(
            **dict(GRID, policies=("str", "idle"))).sweep_id

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
            assert store.counts(spec.sweep_id)[0] == len(cells)
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
        from repro.analysis.passes import LOOPSTATS_PARTS, memo_key
        loopstats = [key for key, _, _ in first if KIND_LOOPSTATS in key]
        assert all(key.endswith("/" + memo_key(16, LOOPSTATS_PARTS))
                   for key in loopstats)
        assert memo_key(16, LOOPSTATS_PARTS) == "loopstats/c16"

    def test_dry_run_registers_but_executes_nothing(self, tmp_path):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path) as store:
            stats = run_sweep(spec, store, dry_run=True)
            assert (stats.executed, stats.failed) == (0, 0)
            assert store.counts(spec.sweep_id)[0] == 24
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
        # Every sweep simulation is priced through the memo's one
        # simulate_grid call, bound in repro.analysis.passes.
        import repro.analysis.passes as passes

        real_grid = passes.simulate_grid

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        with make_store(tmp_path) as store:
            monkeypatch.setattr(passes, "simulate_grid", boom)
            stats = run_sweep(spec, store)      # no cache: must simulate
            assert stats.failed == 12 and stats.executed == 0
            failed = store.get_cells(status="failed")
            assert len(failed) == 12
            assert "RuntimeError: injected" in failed[0].error
            with pytest.raises(ValueError, match="incomplete"):
                sweep_report(store, spec)
            monkeypatch.setattr(passes, "simulate_grid", real_grid)
            retried = run_sweep(spec, store, cache_dir=cache_dir)
            assert retried.executed == 12 and retried.failed == 0
            assert store.get_cells(status="failed") == []

    def test_index_failure_fails_the_whole_workload(self, tmp_path,
                                                    monkeypatch):
        """An index build that raises fails every cell of its workload
        without being retried once per cell."""
        from repro.core.detector import LoopDetector

        walks = []

        def boom(*args, **kwargs):
            walks.append(1)
            raise RuntimeError("index died")

        monkeypatch.setattr(LoopDetector, "run_batches", boom)
        spec = SweepSpec(**dict(GRID, workloads=("swim",)))
        with make_store(tmp_path) as store:
            stats = run_sweep(spec, store)      # no cache: all miss
            assert (stats.executed, stats.failed) == (0, 12)
            assert all(row.error == "RuntimeError: index died"
                       for row in store.get_cells())
        assert 1 <= len(walks) <= 2

    def test_pool_path_matches_inline(self, tmp_path, cache_dir):
        spec = SweepSpec(**GRID)
        with make_store(tmp_path, "inline") as store:
            run_sweep(spec, store, jobs=1, cache_dir=cache_dir)
            inline = [r.render() for r in sweep_report(store, spec)]
        with make_store(tmp_path, "pool") as store:
            run_sweep(spec, store, jobs=2, cache_dir=cache_dir)
            pooled = [r.render() for r in sweep_report(store, spec)]
        assert pooled == inline

    def test_concurrent_identical_sweeps(self, tmp_path):
        """Three processes submitting the same grid at once, on one
        store and one cache directory, all finish cleanly and leave
        exactly the rows a serial run stores."""
        import multiprocessing

        spec = SweepSpec(**GRID)
        with make_store(tmp_path, "serial") as store:
            run_sweep(spec, store, cache_dir=str(tmp_path / "serial-c"))
            serial = _row_facts(store)

        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(3)
        results = context.Queue()
        root = str(tmp_path / "shared")
        cache = str(tmp_path / "shared-c")
        procs = [context.Process(target=_concurrent_sweep,
                                 args=(spec, root, cache, barrier,
                                       results))
                 for _ in range(3)]
        for proc in procs:
            proc.start()
        outcomes = [results.get(timeout=120) for _ in procs]
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0, 0]
        errors = [o for o in outcomes if isinstance(o, str)]
        assert errors == []
        # Every cell ends done; a process that found it done skipped
        # it, so together they executed each cell at least once.
        assert all(o[0] == 24 and o[1] + o[2] == 24 and o[3] == 0
                   for o in outcomes), outcomes
        with SweepStore(root) as store:
            assert store.counts(spec.sweep_id) == (24, 24, 0)
            assert store.get_cells(status="failed") == []
            assert _row_facts(store) == serial

    @pytest.mark.parametrize("kind", [KIND_LOOPSTATS, KIND_SIM])
    def test_impossible_stored_result_is_a_clean_error(
            self, tmp_path, cache_dir, kind):
        """A stored blob whose counters no run can produce is the same
        clean "prune and resubmit" error as an unreadable one, not a
        report row below zero."""
        spec = SweepSpec(experiment="characterize", workloads=("swim",),
                         max_instructions=5000)
        with make_store(tmp_path) as store:
            run_sweep(spec, store, cache_dir=cache_dir)
        db = sqlite3.connect(os.path.join(str(tmp_path / "store"),
                                          DB_NAME))
        for key, detail in db.execute(
                "SELECT cell_key, detail FROM cells WHERE kind = ?",
                (kind,)).fetchall():
            payload = json.loads(detail)
            if kind == KIND_LOOPSTATS:
                payload["stats"]["executions"] = -1
            else:
                payload["promoted"] = payload["resolved"] = -5
            db.execute("UPDATE cells SET detail = ? WHERE cell_key = ?",
                       (json.dumps(payload), key))
        db.commit()
        db.close()
        with make_store(tmp_path) as store:
            with pytest.raises(ValueError, match="prune the store"):
                sweep_report(store, spec)


class TestWorkloadCells:
    """``run_workload_cells`` returns each cell's complete store row,
    the form the sweep and the search commit unchanged."""

    def cells(self):
        return expand_cells(SweepSpec(**dict(GRID, workloads=("swim",))))

    def assert_rows_of(self, rows, cells):
        assert [row["cell_key"] for row in rows] == [c.key for c in cells]
        for row, cell in zip(rows, cells):
            assert tuple(row) == CELL_FIELDS
            assert (row["workload"], row["kind"], row["timing"],
                    row["policy"], row["tus"], row["max_instructions"]) \
                == (cell.workload, cell.kind, cell.timing, cell.policy,
                    cell.tus, cell.max_instructions)

    def test_one_complete_row_per_cell(self):
        """Done cells carry their metrics; a cell that raises (an
        impossible TU count) is one ``failed`` row among done ones."""
        import dataclasses

        from repro.sweep.orchestrator import run_workload_cells

        cells = self.cells()
        bad = dataclasses.replace(cells[-1], key=cells[-1].key + "/bad",
                                  tus=0)
        cells.insert(1, bad)
        rows = run_workload_cells(cells, None)
        self.assert_rows_of(rows, cells)
        assert [row["status"] for row in rows].count("failed") == 1
        failed = rows[1]
        assert failed["status"] == "failed"
        assert failed["error"] == "ValueError: num_tus must be >= 1 or None"
        assert (failed["tpc"], failed["detail"]) == (None, None)
        for row in rows[:1] + rows[2:]:
            assert row["status"] == "done" and row["error"] is None
            assert json.loads(row["detail"])
            assert (row["tpc"] is None) == (row["kind"] == KIND_LOOPSTATS)

    @pytest.mark.parametrize("target", ["index", "trace"])
    def test_workload_stage_failure_fails_every_cell(self, monkeypatch,
                                                     target):
        """An index build or a trace that raises gives a ``failed`` row
        for every cell of the workload, built inside the worker."""
        from repro.core.detector import LoopDetector
        from repro.pipeline import worker
        from repro.sweep.orchestrator import run_workload_cells

        def boom(*args, **kwargs):
            raise RuntimeError("%s died" % target)

        if target == "index":
            monkeypatch.setattr(LoopDetector, "run_batches", boom)
        else:
            monkeypatch.setattr(worker, "trace_workload", boom)
        cells = self.cells()
        rows = run_workload_cells(cells, None)
        self.assert_rows_of(rows, cells)
        assert all(row["status"] == "failed"
                   and row["error"] == "RuntimeError: %s died" % target
                   and row["detail"] is None for row in rows)


def _row_facts(store):
    """Every stored row minus its timestamp, in key order."""
    return sorted((r.cell_key, r.status, r.tpc, r.hit_ratio, r.speedup,
                   r.overhead_cycles, r.detail, r.error)
                  for r in store.get_cells())


def _concurrent_sweep(spec, root, cache, barrier, results):
    """One of the concurrent submitters: wait for the others, run the
    sweep, report ``(planned, skipped, executed, failed)`` or the
    error."""
    try:
        barrier.wait(timeout=60)
        with SweepStore(root) as store:
            stats = run_sweep(spec, store, cache_dir=cache)
        results.put((stats.planned, stats.skipped, stats.executed,
                     stats.failed))
    except Exception as exc:
        results.put("%s: %s" % (type(exc).__name__, exc))


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


    def test_figure7_folds_repeated_policies(self, tmp_path,
                                             cache_dir):
        def report(policies):
            args = ["--workloads", "swim", "--max-instructions", "5000",
                    "--tus", "2", "--policies", policies]
            return self._query(tmp_path / policies, cache_dir,
                               str(tmp_path / policies / "store"),
                               "figure7", args)

        (tmp_path / "str,idle").mkdir()
        (tmp_path / "str,idle,str").mkdir()
        once = report("str,idle")
        assert report("str,idle,str") == once
        assert [line.split()[0] for line in
                once["figure7.txt"].splitlines()
                if line.startswith(("STR", "IDLE"))] == ["STR", "IDLE"]


class TestReportReadsOnlyTheStore:
    """A report runs the experiment's analysis over stored cells
    alone: no trace cache, no index, no writes."""

    @pytest.mark.parametrize("experiment", SWEEP_EXPERIMENTS)
    def test_report_survives_a_deleted_trace_cache(
            self, tmp_path, monkeypatch, experiment):
        from repro.analysis.base import WorkloadContext
        from repro.sweep import query

        cache = str(tmp_path / "cache")
        axes = {"sensitivity": dict(spawn_costs=(0, 8), tu_counts=(2,)),
                "figure6": dict(tu_counts=(2, 4)),
                "figure7": dict(tu_counts=(2,))}
        spec = SweepSpec(experiment=experiment,
                         workloads=("swim", "go"), max_instructions=5000,
                         **axes.get(experiment, {}))
        with make_store(tmp_path) as store:
            run_sweep(spec, store, cache_dir=cache)
            before = sweep_report(store, spec)
        shutil.rmtree(cache)

        calls = []

        class Recording(query._StoredCells):
            __slots__ = ()

            def __getattribute__(self, attr):
                if not attr.startswith("_"):
                    calls.append(attr)
                return super().__getattribute__(attr)

        def resolved(ctx):
            raise AssertionError("a report resolved an index")

        monkeypatch.setattr(query, "_StoredCells", Recording)
        monkeypatch.setattr(WorkloadContext, "_resolved", resolved)
        with make_store(tmp_path) as store:
            after = sweep_report(store, spec)
        for render in ("render", "to_csv", "to_json"):
            assert [getattr(r, render)() for r in after] \
                == [getattr(r, render)() for r in before]
        assert set(calls) == {"get"}
        assert not os.path.exists(cache)


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

    def test_repeated_workload_names_register_one_sweep(self, tmp_path,
                                                        capsys):
        # Same rules as the direct runner: a repeated name runs once,
        # so the sweep id (and its report) match the plain selection.
        def dry_run(workloads):
            assert runner_main(
                ["sweep", "sensitivity", "--workloads", workloads,
                 "--tus", "2", "--dry-run",
                 "--store", str(tmp_path / "store")]) == 0
            return next(line for line in
                        capsys.readouterr().out.splitlines()
                        if line.startswith("sweep "))

        once = dry_run("swim")
        assert "over 1 workload(s)" in once
        assert dry_run("swim,swim") == once

    def test_repeated_policies_register_one_sweep(self, tmp_path,
                                                 capsys):
        def dry_run(policies):
            assert runner_main(
                ["sweep", "sensitivity", "--workloads", "swim",
                 "--tus", "2", "--policies", policies, "--dry-run",
                 "--store", str(tmp_path / "store")]) == 0
            return next(line for line in
                        capsys.readouterr().out.splitlines()
                        if line.startswith("sweep "))

        assert dry_run("str,idle,str") == dry_run("str,idle")

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
        """Reading a store that does not exist prints an empty answer
        and creates nothing: no directory, no ``store.sqlite``."""
        tool = self._tool()
        root = str(tmp_path / "store")
        assert tool.main(["sweeps", "ls", "--store", root]) == 0
        assert "is empty" in capsys.readouterr().out
        assert os.listdir(str(tmp_path)) == []
        assert tool.main(["sweeps", "prune", "--store", root,
                          "--dry-run"]) == 0
        assert "would prune 0 failed cell(s), 0 orphaned cell(s)" \
            in capsys.readouterr().out
        assert os.listdir(str(tmp_path)) == []
        assert runner_main(["query", "--store", root]) == 0
        assert "Sweep cells (0)" in capsys.readouterr().out
        assert os.listdir(str(tmp_path)) == []

    def test_sweeps_requires_an_action(self, tmp_path, capsys):
        tool = self._tool()
        with pytest.raises(SystemExit):
            tool.main(["sweeps", "--store", str(tmp_path / "store")])
        capsys.readouterr()
