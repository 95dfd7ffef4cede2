"""Synthetic workload generator: determinism, semantic validity, and
the characterization sweep's acceptance properties."""

import json

import pytest

from repro.core import compute_loop_statistics, loop_coverage
from repro.lang import LangError, compile_module, module_stats
from repro.pipeline import PipelineConfig, SimulationSession
from repro.pipeline.cache import TraceCache, program_fingerprint
from repro.util.rng import Xorshift64
from repro.workloads import get, register_workload
from repro.workloads.synthetic import (
    PROFILES,
    ProfileValidationError,
    WorkloadProfile,
    as_candidate,
    generate_module,
    get_profile,
    make_workload,
    mutate_profile,
    parse_synthetic_name,
    profile_digest,
    random_profile,
    sweep_names,
    synthetic_name,
)

from capture import load, row_for, workload_index, workload_trace

from records import iter_records
from reference.invariants import check_trace

ALL_PROFILES = sorted(PROFILES)


class TestNaming:
    def test_roundtrip(self):
        assert synthetic_name("deep-nest", 7) == "synth-deep-nest-7"
        assert parse_synthetic_name("synth-deep-nest-7") \
            == ("deep-nest", 7)

    @pytest.mark.parametrize("bad", (
        "deep-nest-7", "synth-", "synth-7", "synth-deep-nest-",
        "synth-deep-nest-x",
    ))
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_synthetic_name(bad)

    def test_registry_resolves_lazily(self):
        workload = get("synth-baseline-3")
        assert workload.name == "synth-baseline-3"
        assert get("synth-baseline-3") is workload     # registered now

    def test_unknown_profile_is_keyerror(self):
        with pytest.raises(KeyError, match="spice"):
            get("synth-spice-1")

    def test_sweep_names(self):
        assert sweep_names("baseline", 7, 3) == [
            "synth-baseline-7", "synth-baseline-8", "synth-baseline-9"]
        with pytest.raises(KeyError):
            sweep_names("spice", 1, 3)
        with pytest.raises(ValueError):
            sweep_names("baseline", 1, 0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            synthetic_name("baseline", -1)
        with pytest.raises(ValueError, match="seed"):
            sweep_names("baseline", -1, 3)


class TestProfileValidation:
    def test_builtins_are_valid(self):
        for name in ALL_PROFILES:
            assert get_profile(name).name == name

    #: one case per invalid field: (kwargs, reported field name)
    INVALID_CASES = (
        (dict(nesting_depth=()), "nesting_depth"),
        (dict(nesting_depth=((2, 1), "oops")), "nesting_depth[1]"),
        (dict(nesting_depth=((0, 1),)), "nesting_depth[0]"),
        (dict(nesting_depth=((2, 0),)), "nesting_depth[0]"),
        (dict(trip_count=()), "trip_count"),
        (dict(trip_count=(((1, 4), 1),)), "trip_count[0]"),
        (dict(trip_count=(((9, 4), 1),)), "trip_count[0]"),
        (dict(exit_irregularity=1.5), "exit_irregularity"),
        (dict(exit_irregularity="high"), "exit_irregularity"),
        (dict(branch_density=-0.1), "branch_density"),
        (dict(call_mix=2.0), "call_mix"),
        (dict(recursion_depth=-1), "recursion_depth"),
        (dict(working_set=2), "working_set"),
        (dict(num_arrays=0), "num_arrays"),
        (dict(num_nests=0), "num_nests"),
        (dict(body_ops=(3, 1)), "body_ops"),
        (dict(body_ops=(0, 4)), "body_ops"),
        (dict(target_instructions=10), "target_instructions"),
        (dict(default_max_instructions=100_000),
         "default_max_instructions"),
        (dict(category="vector"), "category"),
    )

    @pytest.mark.parametrize(
        "kwargs,field", INVALID_CASES,
        ids=["%s=%r" % next(iter(kw.items())) for kw, _ in
             INVALID_CASES])
    def test_invalid_profiles_rejected(self, kwargs, field):
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", **kwargs)

    @pytest.mark.parametrize(
        "kwargs,field", INVALID_CASES,
        ids=["%s=%r" % next(iter(kw.items())) for kw, _ in
             INVALID_CASES])
    def test_error_names_field_and_value(self, kwargs, field):
        """Every rejection names the offending field and carries the
        offending value, so a bad hand-written or mutated profile is
        diagnosable from the message alone."""
        with pytest.raises(ProfileValidationError) as excinfo:
            WorkloadProfile(name="bad", **kwargs)
        err = excinfo.value
        assert err.field == field
        assert str(err).startswith("%s=" % field)
        assert repr(err.value) in str(err)

    def test_bad_name_rejected(self):
        for bad in ("", "two words", 7):
            with pytest.raises(ProfileValidationError) as excinfo:
                WorkloadProfile(name=bad)
            assert excinfo.value.field == "name"


class TestProfileSerialization:
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_dict_roundtrip_exact(self, profile):
        p = get_profile(profile)
        assert WorkloadProfile.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_json_roundtrip_exact(self, profile):
        # The search corpus stores a profile's dict as JSON.
        p = get_profile(profile)
        text = json.dumps(p.to_dict(), sort_keys=True)
        assert WorkloadProfile.from_dict(json.loads(text)) == p

    def test_from_dict_rejects_unknown_fields(self):
        payload = get_profile("baseline").to_dict()
        payload["spice"] = 1
        with pytest.raises(ValueError, match="spice"):
            WorkloadProfile.from_dict(payload)

    def test_from_dict_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            WorkloadProfile.from_dict("not a dict")
        payload = get_profile("baseline").to_dict()
        payload["trip_count"] = [[3, 1]]        # no (low, high) range
        with pytest.raises(ValueError, match="malformed"):
            WorkloadProfile.from_dict(payload)

    def test_digest_ignores_labels_only(self):
        base = get_profile("baseline")
        relabelled = WorkloadProfile.from_dict(
            {**base.to_dict(), "name": "other",
             "description": "different words"})
        changed = WorkloadProfile.from_dict(
            {**base.to_dict(), "num_nests": base.num_nests + 1})
        assert profile_digest(relabelled) == profile_digest(base)
        assert profile_digest(changed) != profile_digest(base)


class TestMutation:
    def test_mutations_always_valid_and_digest_named(self):
        rng = Xorshift64(99)
        profile = as_candidate(get_profile("baseline"))
        for _ in range(200):
            profile = mutate_profile(profile, rng)
            # constructing it *is* the validation (frozen dataclass
            # validates eagerly); the name must embed the digest
            assert profile.name == "cand" + profile_digest(profile)
            assert profile.default_max_instructions \
                >= 4 * profile.target_instructions

    def test_mutation_deterministic(self):
        base = as_candidate(get_profile("irregular"))
        a = mutate_profile(base, Xorshift64(5), moves=3)
        b = mutate_profile(base, Xorshift64(5), moves=3)
        assert a == b

    def test_random_profiles_valid_and_deterministic(self):
        rng_a, rng_b = Xorshift64(11), Xorshift64(11)
        a = [random_profile(rng_a) for _ in range(5)]
        b = [random_profile(rng_b) for _ in range(5)]
        assert [p.name for p in a] == [p.name for p in b]
        assert len({p.name for p in a}) > 1     # the stream moves

    def test_as_candidate_idempotent(self):
        once = as_candidate(get_profile("baseline"))
        assert as_candidate(once) == once


class TestDeterminism:
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_same_seed_identical_program(self, profile):
        """Same profile+seed must fingerprint identically — this is
        what keeps the trace-cache key stable across runs."""
        p = get_profile(profile)
        a = program_fingerprint(make_workload(p, 7).program())
        b = program_fingerprint(make_workload(p, 7).program())
        assert a == b

    def test_different_seeds_differ(self):
        p = get_profile("baseline")
        a = program_fingerprint(make_workload(p, 1).program())
        b = program_fingerprint(make_workload(p, 2).program())
        assert a != b

    def test_different_profiles_differ_at_same_seed(self):
        a = program_fingerprint(
            make_workload(get_profile("baseline"), 7).program())
        b = program_fingerprint(
            make_workload(get_profile("irregular"), 7).program())
        assert a != b

    def test_cache_key_stable(self, tmp_path):
        """Two independently generated instances produce the same cache
        path, so warm runs hit entries written by earlier processes."""
        cache = TraceCache(str(tmp_path))
        p = get_profile("deep-nest")
        paths = {cache.path("synth-deep-nest-7", 1, 2_000_000,
                            program_fingerprint(
                                make_workload(p, 7).program()))
                 for _ in range(2)}
        assert len(paths) == 1

    def test_scale_preserves_shape(self):
        """Scale multiplies repetitions without reshaping the program:
        the same functions, loops, and nesting, different trip of the
        outer rep loop only."""
        p = get_profile("baseline")
        m1 = generate_module(p, 5, scale=1)
        m2 = generate_module(p, 5, scale=3)
        s1, s2 = module_stats(m1), module_stats(m2)
        assert sorted(m1.functions) == sorted(m2.functions)
        assert s1.loops == s2.loops
        assert s1.max_syntactic_nesting == s2.max_syntactic_nesting


class TestSemanticValidity:
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize("seed", (1, 7))
    def test_compiles_runs_halts(self, profile, seed):
        workload = make_workload(get_profile(profile), seed)
        trace = workload_trace(workload)
        assert trace.halted, "did not halt within budget"
        assert check_trace(trace)
        assert trace.total_instructions \
            < get_profile(profile).default_max_instructions

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_meaningful_loop_behaviour(self, profile):
        workload = make_workload(get_profile(profile), 3)
        stats = compute_loop_statistics(workload_index(workload),
                                        workload.name)
        assert stats.total_instructions > 10_000
        assert stats.executions > 10
        assert stats.static_loops >= get_profile(profile).num_nests
        assert loop_coverage(workload_index(workload)) > 0.5

    def test_profiles_shape_behaviour(self):
        """The families must actually be different: deep-nest nests
        deeper than wide-flat, wide-flat iterates longer."""
        deep = compute_loop_statistics(
            workload_index(make_workload(get_profile("deep-nest"), 2)))
        flat = compute_loop_statistics(
            workload_index(make_workload(get_profile("wide-flat"), 2)))
        assert deep.max_nesting > flat.max_nesting
        assert flat.iterations_per_execution \
            > deep.iterations_per_execution

    def test_generated_module_compiles_directly(self):
        module = generate_module(get_profile("call-heavy"), 11)
        program = compile_module(module)   # raises LangError on bugs
        assert program.entry is not None

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            generate_module(get_profile("baseline"), 1, scale=0)


class TestCharacterizeSweep:
    def _run(self, tmp_path, cache=True):
        from repro.experiments.runner import build_suite
        names = tuple(sweep_names("deep-nest", 7, 4))
        for name in names:
            get(name)
        session = SimulationSession(PipelineConfig(
            workloads=names,
            cache_dir=str(tmp_path / "cache") if cache else None))
        suite, _ = build_suite(["characterize"])
        results = session.analyze(suite)[0]
        return session, results

    def test_one_replay_per_workload(self, tmp_path):
        session, results = self._run(tmp_path)
        assert session.stats.replays == 4
        per_workload, summary = results
        assert len(per_workload.rows) == 4
        assert [row[0] for row in per_workload.rows] \
            == list(sweep_names("deep-nest", 7, 4))

    def test_cold_traces_each_then_warm_only_replays(self, tmp_path):
        names = tuple(sweep_names("deep-nest", 7, 4))
        config = PipelineConfig(workloads=names,
                                cache_dir=str(tmp_path / "cache"))
        cold = SimulationSession(config)
        cold.ensure_traced()
        assert cold.stats.traced == 4
        session, _ = self._run(tmp_path)
        assert (session.stats.traced, session.stats.replays) == (0, 4)

    def test_report_deterministic_across_sessions(self, tmp_path):
        """The acceptance property: two independent runs (cold then
        warm cache) render byte-identical reports."""
        _, first = self._run(tmp_path)
        _, second = self._run(tmp_path)
        for a, b in zip(first, second):
            assert a.render() == b.render()
            assert a.to_json() == b.to_json()

    def test_summary_covers_policies(self, tmp_path):
        _, (_, summary) = self._run(tmp_path, cache=False)
        metrics = [row[0] for row in summary.rows]
        for policy in ("idle", "str", "str(3)"):
            assert "hit %% [%s]" % policy in metrics
            assert "tpc [%s]" % policy in metrics
        cov = row_for(summary, "coverage %")
        assert 0.0 <= cov[1] <= cov[5] <= 100.0

    def test_cli_characterize(self, tmp_path, capsys):
        from repro.experiments.runner import main
        assert main(["characterize", "--profile", "tiny-loops",
                     "--seed", "2", "--count", "2",
                     "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "synth-tiny-loops-2" in out
        assert "synth-tiny-loops-3" in out
        assert "2 replay(s)" in out

    def test_cli_profile_with_other_experiment(self, tmp_path, capsys):
        from repro.experiments.runner import main
        assert main(["table1", "--profile", "baseline", "--count", "2",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "synth-baseline-1" in out

    def test_cli_profile_conflicts_with_workloads(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table1", "--profile", "baseline",
                  "--workloads", "swim"])

    def test_cli_unknown_profile(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["characterize", "--profile", "spice"])

    def test_cli_negative_seed_clean_error(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["characterize", "--seed", "-1"])
        assert "seed" in capsys.readouterr().err

    def test_cli_sweep_flags_without_sweep_rejected(self, capsys):
        from repro.experiments.runner import main
        with pytest.raises(SystemExit):
            main(["table1", "--seed", "5"])
        assert "--seed/--count" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["characterize", "--workloads", "synth-baseline-1",
                  "--count", "5"])
        assert "--seed/--count" in capsys.readouterr().err

    def test_cli_synth_workload_name(self, tmp_path, capsys):
        from repro.experiments.runner import main
        assert main(["table1", "--workloads", "synth-baseline-2",
                     "--no-cache"]) == 0
        assert "synth-baseline-2" in capsys.readouterr().out

    def test_characterize_not_in_all(self):
        from repro.experiments.runner import EXPERIMENT_ORDER, \
            EXTRA_EXPERIMENTS, available_experiments, select_experiments
        selected = select_experiments(["all"], available_experiments(),
                                      extras=EXTRA_EXPERIMENTS)
        assert "characterize" not in selected
        assert selected == list(EXPERIMENT_ORDER)
        assert select_experiments(
            ["characterize"], available_experiments(),
            extras=EXTRA_EXPERIMENTS) == ["characterize"]


class TestRegistryIntegration:
    def test_register_workload_idempotent_for_same_object(self):
        w = get("synth-baseline-17")
        assert register_workload(w) is w

    def test_register_workload_rejects_conflicting_object(self):
        get("synth-baseline-18")
        impostor = make_workload(get_profile("baseline"), 18)
        with pytest.raises(ValueError, match="already registered"):
            register_workload(impostor)

    def test_pipeline_pools_synthetic(self, tmp_path):
        """Pooled tracing resolves synth names in child processes and
        produces the same traces as inline tracing."""
        names = ("synth-tiny-loops-1", "synth-tiny-loops-2")
        for name in names:
            get(name)
        pooled = SimulationSession(PipelineConfig(
            workloads=names, jobs=2, cache_dir=str(tmp_path / "p")))
        inline = SimulationSession(PipelineConfig(
            workloads=names, cache_dir=None))
        pooled.ensure_traced()
        pooled_loaded, inline_loaded = load(pooled), load(inline)
        for name in names:
            assert list(iter_records(pooled_loaded[name][0])) \
                == list(iter_records(inline_loaded[name][0]))
