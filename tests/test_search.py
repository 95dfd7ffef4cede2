"""The adversarial search subsystem: objectives, specs, candidate
evaluation, the hill climber's determinism and resume guarantees, the
corpus export/resolve round trip, and the ``runner search`` CLI.

The search tests run tiny budgets (mutation bounds keep candidates
around 10^5 traced instructions) with a module-scoped trace cache, so
repeat evaluations price against warm traces.
"""

import json
import os

import pytest

from repro.experiments.runner import main as runner_main
from repro.search import (
    EvalSettings,
    SearchSpec,
    evaluate_candidate,
    get_objective,
    objective_names,
    run_search,
)
from repro.search.corpus import export_winners, frontier_names, \
    load_case
from repro.search.evaluate import candidate_cells
from repro.search.loop import _loop_seed
from repro.search.objectives import COVERAGE_COLLAPSE_BELOW, \
    Objective, register_objective
from repro.sweep import SweepStore, SweepStoreError
from repro.util.rng import Xorshift64
from repro.workloads.synthetic import as_candidate, get_profile, \
    random_profile

#: Small, fast search every loop test reuses.
TINY = dict(objective="coverage-collapse", budget=6, seed=7,
            stall_limit=3)


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """One warm trace/derived cache shared by the whole module."""
    return str(tmp_path_factory.mktemp("search-cache"))


def make_store(tmp_path, name="store"):
    return SweepStore(str(tmp_path / name))


class TestObjectives:
    def test_builtin_names(self):
        assert objective_names() == ["coverage-collapse",
                                     "policy-divergence",
                                     "tpc-inversion"]

    def test_unknown_objective_is_keyerror(self):
        with pytest.raises(KeyError, match="spice"):
            get_objective("spice")

    def test_duplicate_registration_rejected(self):
        clone = Objective("coverage-collapse", "", "")
        with pytest.raises(ValueError, match="already registered"):
            register_objective(clone)

    def test_inversion_rejects_ideal_timing(self):
        with pytest.raises(ValueError, match="non-ideal"):
            SearchSpec(objective="tpc-inversion",
                       settings=EvalSettings(timing="ideal"))
        with pytest.raises(ValueError, match="non-ideal"):
            # all-zero overhead canonicalizes onto ideal
            SearchSpec(objective="tpc-inversion",
                       settings=EvalSettings(
                           timing="overhead:spawn=0"))

    def test_divergence_needs_two_policies(self):
        with pytest.raises(ValueError, match="two"):
            SearchSpec(objective="policy-divergence",
                       settings=EvalSettings(policy="str",
                                             policies=("str",)))

    def test_settings_validate_eagerly(self):
        with pytest.raises(ValueError, match="policies"):
            EvalSettings(policy="idle", policies=("str",))
        with pytest.raises(ValueError):
            EvalSettings(timing="warp-drive")
        with pytest.raises(ValueError):
            EvalSettings(tus=0)

    def test_scores_read_the_metrics_bundle(self, cache_dir):
        settings = EvalSettings()
        profile = as_candidate(get_profile("baseline"))
        outcome = evaluate_candidate(profile, 1, settings,
                                     cache_dir=cache_dir)
        assert outcome.error is None
        m = outcome.metrics
        cov = get_objective("coverage-collapse")
        assert cov.score(m, settings) == pytest.approx(
            1.0 - m.coverage)
        assert cov.frontier(m, settings) \
            == (m.coverage < COVERAGE_COLLAPSE_BELOW)
        div = get_objective("policy-divergence")
        tpcs = [m.sim(p, "ideal")["tpc"] for p in settings.policies]
        assert div.score(m, settings) \
            == pytest.approx(max(tpcs) - min(tpcs))
        inv = get_objective("tpc-inversion")
        assert inv.score(m, settings) == pytest.approx(
            min(m.sim("str", "ideal")["speedup"] - 1.0,
                1.0 - m.sim("str", "overhead")["speedup"]))


class TestSearchSpec:
    def test_json_round_trip(self):
        spec = SearchSpec(**TINY)
        payload = json.loads(spec.to_json())
        assert payload.pop("experiment") == spec.experiment == "search"
        payload["settings"] = EvalSettings.from_dict(payload["settings"])
        assert SearchSpec(**payload) == spec

    def test_id_is_content_derived(self):
        a = SearchSpec(**TINY)
        b = SearchSpec(**TINY)
        c = SearchSpec(**dict(TINY, seed=8))
        assert a.sweep_id == b.sweep_id
        assert a.sweep_id != c.sweep_id

    def test_validation(self):
        with pytest.raises(ValueError, match="budget"):
            SearchSpec(objective="coverage-collapse", budget=0)
        with pytest.raises(ValueError, match="top_k"):
            SearchSpec(objective="coverage-collapse", top_k=0)
        with pytest.raises(KeyError, match="spice"):
            SearchSpec(objective="spice")

    def test_trajectory_seed_mixes_objective(self):
        a = SearchSpec(**TINY)
        b = SearchSpec(**dict(TINY, objective="policy-divergence"))
        assert _loop_seed(a) != _loop_seed(b)


class TestEvaluate:
    def test_cells_are_sweep_keyed(self, cache_dir):
        """Candidate cell keys use the sweep key discipline, so search
        rows and sweep rows are the same rows."""
        from repro.sweep.spec import workload_trace_key
        from repro.workloads.synthetic import ensure_profile_workload

        settings = EvalSettings()
        profile = as_candidate(get_profile("baseline"))
        name = ensure_profile_workload(profile, 1)
        cells = candidate_cells(name, settings)
        # 1 loopstats + |policies| x {ideal, overhead}
        assert len(cells) == 1 + 2 * len(settings.policies)
        trace_key, _ = workload_trace_key(name)
        assert all(c.key.startswith(trace_key + "/") for c in cells)
        ideal_str = [c for c in cells if c.policy == "str"
                     and c.timing == "ideal"]
        assert ideal_str[0].key == trace_key + "/simulate/4/str/c16"

    def test_store_restores_instead_of_recomputing(self, tmp_path,
                                                   cache_dir):
        settings = EvalSettings()
        profile = as_candidate(get_profile("baseline"))
        with make_store(tmp_path) as store:
            first = evaluate_candidate(profile, 1, settings,
                                       store=store,
                                       cache_dir=cache_dir)
            assert (first.executed, first.restored) == (7, 0)
            second = evaluate_candidate(profile, 1, settings,
                                        store=store,
                                        cache_dir=cache_dir)
            assert (second.executed, second.restored) == (0, 7)
            assert second.metrics.to_dict() \
                == first.metrics.to_dict()

    def test_failed_simulation_reports_error(self, tmp_path,
                                             monkeypatch):
        import repro.analysis.passes as passes

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(passes, "simulate_grid", boom)
        profile = as_candidate(get_profile("baseline"))
        outcome = evaluate_candidate(profile, 1, EvalSettings(),
                                     cache_dir=None)
        assert outcome.metrics is None
        assert "injected" in outcome.error


class TestSearchLoop:
    def test_two_cold_runs_identical_winners(self, tmp_path,
                                             cache_dir):
        spec = SearchSpec(**TINY)
        with make_store(tmp_path, "a") as store:
            winners_a, stats_a = run_search(spec, store=store,
                                            cache_dir=cache_dir)
        with make_store(tmp_path, "b") as store:
            winners_b, stats_b = run_search(spec, store=store,
                                            cache_dir=cache_dir)
        assert [(w.name, w.score) for w in winners_a] \
            == [(w.name, w.score) for w in winners_b]
        assert stats_a.executed_cells == stats_b.executed_cells
        assert stats_a.restored_cells \
            == stats_b.restored_cells == 0
        assert winners_a      # a tiny search still finds candidates
        assert all(w.score >= winners_a[-1].score
                   for w in winners_a)

    def test_resubmission_executes_zero(self, tmp_path, cache_dir):
        spec = SearchSpec(**TINY)
        with make_store(tmp_path) as store:
            _, cold = run_search(spec, store=store,
                                 cache_dir=cache_dir)
            winners, warm = run_search(spec, store=store,
                                       cache_dir=cache_dir)
            assert warm.executed_cells == 0
            assert warm.restored_cells == cold.executed_cells

    def test_interrupt_resume_runs_exactly_the_missing(
            self, tmp_path, cache_dir):
        """Kill the search mid-run, resubmit, and the rerun must
        execute exactly the cells the interrupted run never reached --
        and still report the same winners as an uninterrupted run."""
        spec = SearchSpec(**TINY)
        with make_store(tmp_path, "whole") as store:
            baseline, whole = run_search(spec, store=store,
                                         cache_dir=cache_dir)

        calls = []

        def interrupt(index, outcome, score):
            calls.append(outcome.executed)
            if len(calls) == 2:
                raise KeyboardInterrupt

        with make_store(tmp_path, "cut") as store:
            with pytest.raises(KeyboardInterrupt):
                run_search(spec, store=store, cache_dir=cache_dir,
                           progress=interrupt)
            survived = sum(calls)       # checkpointed before the cut
            winners, resumed = run_search(spec, store=store,
                                          cache_dir=cache_dir)
            assert resumed.restored_cells == survived
            assert resumed.executed_cells \
                == whole.executed_cells - survived
            assert [(w.name, w.score) for w in winners] \
                == [(w.name, w.score) for w in baseline]

    def test_search_run_is_not_a_resumable_sweep(self, tmp_path,
                                                 cache_dir):
        """Search runs live in the sweeps table (so prune keeps their
        cells) but runner sweep --resume must refuse them cleanly."""
        spec = SearchSpec(**TINY)
        with make_store(tmp_path) as store:
            run_search(spec, store=store, cache_dir=cache_dir)
            ids = [row[0] for row in store.sweeps()]
            assert spec.sweep_id in ids
            with pytest.raises(SweepStoreError, match="search run"):
                store.spec_for(spec.sweep_id)
            # membership recorded => prune keeps every search cell
            assert store.prune(dry_run=True) == (0, 0)

    def test_failed_candidates_do_not_kill_the_search(
            self, tmp_path, monkeypatch):
        import repro.analysis.passes as passes

        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(passes, "simulate_grid", boom)
        spec = SearchSpec(**dict(TINY, budget=3))
        winners, stats = run_search(spec, cache_dir=None)
        assert winners == []
        assert stats.failures == stats.evaluated > 0


class _CountingConnection:
    """A sqlite connection that counts its commits and rollbacks."""

    def __init__(self, conn):
        self._conn = conn
        self.commits = 0
        self.rollbacks = 0

    def commit(self):
        self.commits += 1
        self._conn.commit()

    def rollback(self):
        self.rollbacks += 1
        self._conn.rollback()

    def __getattr__(self, name):
        return getattr(self._conn, name)


def counting(store):
    """Wrap *store*'s open connection in a :class:`_CountingConnection`."""
    store._conn = _CountingConnection(store._connect())
    return store._conn


class TestCommitAtomicity:
    """A search candidate's cells and its membership are one
    transaction."""

    def test_one_commit_per_evaluated_candidate(self, tmp_path,
                                                cache_dir):
        spec = SearchSpec(**TINY)
        with make_store(tmp_path) as store:
            for run in ("cold", "resubmitted"):
                conn = counting(store)
                _, stats = run_search(spec, store=store,
                                      cache_dir=cache_dir)
                assert stats.evaluated > 0
                # the search's registration, then one per candidate
                assert (conn.commits, conn.rollbacks) \
                    == (1 + stats.evaluated, 0), run
            assert stats.executed_cells == 0

    def test_interrupt_leaves_whole_candidates(self, tmp_path,
                                               cache_dir):
        spec = SearchSpec(**TINY)
        keys = []

        def interrupt(index, outcome, score):
            assert outcome.metrics is not None
            keys.append(outcome.cell_keys)
            if len(keys) == 2:
                raise KeyboardInterrupt

        with make_store(tmp_path) as store:
            with pytest.raises(KeyboardInterrupt):
                run_search(spec, store=store, cache_dir=cache_dir,
                           progress=interrupt)
            expected = set(keys[0]) | set(keys[1])
            assert {row.cell_key for row in store.get_cells()} == expected
            assert {row.cell_key for row in
                    store.get_cells(sweep_id=spec.sweep_id)} == expected
            assert store.prune(dry_run=True) == (0, 0)

    def test_failed_membership_insert_leaves_no_cells(
            self, tmp_path, cache_dir, monkeypatch):
        import sqlite3

        real = SweepStore._register

        def fail_after_insert(self, conn, spec, cell_keys):
            real(self, conn, spec, cell_keys)
            if cell_keys:
                raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(SweepStore, "_register", fail_after_insert)
        spec = SearchSpec(**TINY)
        profile = as_candidate(get_profile("baseline"))
        with make_store(tmp_path) as store:
            store.record_sweep(spec, ())
            conn = counting(store)
            with pytest.raises(SweepStoreError, match="is busy"):
                evaluate_candidate(profile, 1, spec.settings, store=store,
                                   cache_dir=cache_dir, sweep=spec)
            assert (conn.commits, conn.rollbacks) == (0, 1)
            assert store.counts() == (0, 0, 0)
            assert store.counts(spec.sweep_id) == (0, 0, 0)
            monkeypatch.undo()
            outcome = evaluate_candidate(profile, 1, spec.settings,
                                         store=store, cache_dir=cache_dir,
                                         sweep=spec)
            assert (outcome.executed, outcome.restored) == (7, 0)
            assert store.counts(spec.sweep_id) == (7, 7, 0)


class TestCorpus:
    def test_export_and_reload_round_trip(self, tmp_path, cache_dir):
        spec = SearchSpec(**dict(TINY, budget=4))
        winners, _ = run_search(spec, cache_dir=cache_dir)
        # force exportability regardless of what the tiny run found
        from dataclasses import replace
        pinned = [replace(w, frontier=True) for w in winners[:2]]
        out = str(tmp_path / "corpus")
        paths = export_winners(spec, pinned, directory=out)
        assert len(paths) == 2
        names = frontier_names(out)
        assert names == ["frontier-coverage-collapse-1",
                         "frontier-coverage-collapse-2"]
        case = load_case(names[0], out)
        assert case.profile == pinned[0].profile
        assert case.gen_seed == pinned[0].gen_seed
        assert case.metrics.to_dict() \
            == pinned[0].metrics.to_dict()
        assert case.provenance["search_id"] == spec.sweep_id

    def test_non_frontier_winners_not_exported(self, tmp_path,
                                               cache_dir):
        spec = SearchSpec(**dict(TINY, budget=4))
        winners, _ = run_search(spec, cache_dir=cache_dir)
        from dataclasses import replace
        weak = [replace(w, frontier=False) for w in winners]
        assert export_winners(spec, weak,
                              directory=str(tmp_path / "none")) == []

    def test_missing_case_is_keyerror(self):
        from repro.workloads import get
        with pytest.raises(KeyError):
            load_case("frontier-spice-1")
        with pytest.raises(KeyError):
            get("frontier-spice-1")

    def test_corrupt_case_is_valueerror(self, tmp_path):
        path = tmp_path / "frontier-bad-1.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="unreadable"):
            load_case(str(path))
        path.write_text(json.dumps({"format": 99}))
        with pytest.raises(ValueError, match="format"):
            load_case(str(path))


class TestSearchCLI:
    def run(self, argv, capsys):
        code = runner_main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    def test_list(self, capsys):
        code, out, _ = self.run(["search", "--list"], capsys)
        assert code == 0
        assert "tpc-inversion" in out
        assert "frontier-coverage-collapse-1" in out

    def test_requires_objective(self, capsys):
        with pytest.raises(SystemExit):
            runner_main(["search"])
        _, err = capsys.readouterr()
        assert "--objective" in err

    def test_bad_settings_are_clean_errors(self, capsys):
        with pytest.raises(SystemExit):
            runner_main(["search", "--objective", "tpc-inversion",
                         "--timing", "ideal"])
        _, err = capsys.readouterr()
        assert "non-ideal" in err

    def test_cold_runs_render_identical_tables(self, tmp_path,
                                               cache_dir, capsys):
        argv = ["search", "--objective", "coverage-collapse",
                "--budget", "4", "--seed", "7", "--stall", "3",
                "--cache-dir", cache_dir]
        code_a, out_a, _ = self.run(
            argv + ["--store", str(tmp_path / "a")], capsys)
        code_b, out_b, _ = self.run(
            argv + ["--store", str(tmp_path / "b")], capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "search: coverage-collapse" in out_a

    def test_resubmit_restores_from_store(self, tmp_path, cache_dir,
                                          capsys):
        argv = ["search", "--objective", "coverage-collapse",
                "--budget", "4", "--seed", "7", "--stall", "3",
                "--cache-dir", cache_dir,
                "--store", str(tmp_path / "store")]
        _, out_a, err_a = self.run(argv, capsys)
        _, out_b, err_b = self.run(argv, capsys)
        assert out_a == out_b
        assert "cells: 0 executed" in err_b.splitlines()[-1]

    def test_export_dir(self, tmp_path, cache_dir, capsys):
        out_dir = str(tmp_path / "corpus")
        code, out, _ = self.run(
            ["search", "--objective", "policy-divergence",
             "--budget", "4", "--seed", "3", "--stall", "3",
             "--cache-dir", cache_dir,
             "--store", str(tmp_path / "store"),
             "--export-dir", out_dir], capsys)
        assert code == 0
        exported = frontier_names(out_dir)
        if exported:
            assert out.count("exported ") == len(exported)
        else:
            assert "nothing exported" in out
