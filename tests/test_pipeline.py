"""Tests for the parallel simulation pipeline: process-pool tracing,
the on-disk trace cache, and streaming loop detection.

Kept fast with a two-workload subset and a small instruction budget;
the parallel paths still exercise a real ``ProcessPoolExecutor``.
"""

import os

import pytest

from repro.pipeline import (
    PipelineConfig,
    SimulationSession,
    TraceCache,
    default_cache_dir,
)
from repro.pipeline import worker
from repro.trace.io import TRACE_FORMAT_VERSION, dumps_cf_trace

WORKLOADS = ("swim", "go")
LIMIT = 40_000


def config(**kwargs):
    kwargs.setdefault("workloads", WORKLOADS)
    kwargs.setdefault("max_instructions", LIMIT)
    return PipelineConfig(**kwargs)


def trace_bytes(session):
    return {name: dumps_cf_trace(session.trace(name))
            for name in WORKLOADS}


def index_shape(index):
    return (len(index), len(index.events), index.total_instructions,
            sorted((r.exec_id, r.loop, r.start_seq, r.end_seq,
                    r.iterations, tuple(r.iter_seqs))
                   for r in index.executions.values()))


class TestConfig:
    def test_frozen_and_hashable(self):
        cfg = config()
        with pytest.raises(AttributeError):
            cfg.scale = 2
        hash(cfg)

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(scale=0)
        with pytest.raises(ValueError):
            PipelineConfig(jobs=0)
        with pytest.raises(ValueError):
            PipelineConfig(max_instructions=0)

    def test_workload_objects_normalized_to_names(self):
        from repro.workloads import get
        cfg = PipelineConfig(workloads=(get("swim"), "go"))
        assert cfg.workloads == ("swim", "go")

    def test_default_cache_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"


class TestSessionBasics:
    def test_trace_and_index_memoized(self):
        session = SimulationSession(config())
        assert session.trace("swim") is session.trace("swim")
        assert session.index("go") is session.index("go")

    def test_unknown_workload(self):
        session = SimulationSession(config())
        with pytest.raises(KeyError):
            session.trace("spice")
        with pytest.raises(KeyError):
            session.index("spice")

    def test_indexes_in_configured_order(self):
        session = SimulationSession(config(workloads=("go", "swim")))
        assert [name for name, _ in session.indexes()] == ["go", "swim"]

    def test_kwargs_construction(self):
        session = SimulationSession(workloads=WORKLOADS,
                                    max_instructions=LIMIT)
        assert session.max_instructions == LIMIT
        with pytest.raises(TypeError):
            SimulationSession(config(), scale=2)


class TestParallelEqualsSequential:
    def test_traces_byte_identical_and_indexes_match(self, tmp_path):
        seq = SimulationSession(config(jobs=1))
        par = SimulationSession(config(
            jobs=4, cache_dir=str(tmp_path / "cache")))
        seq_idx = dict(seq.indexes())
        par_idx = dict(par.indexes())
        assert trace_bytes(seq) == trace_bytes(par)
        for name in WORKLOADS:
            assert index_shape(seq_idx[name]) == index_shape(par_idx[name])

    def test_parallel_without_cache(self):
        par = SimulationSession(config(jobs=2))
        seq = SimulationSession(config(jobs=1))
        assert trace_bytes(par) == trace_bytes(seq)


class TestCache:
    def test_cache_hit_skips_tracing(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        warm = SimulationSession(config(cache_dir=cache_dir))
        warm.indexes()
        assert warm.stats.traced == 2
        assert warm.stats.cache_hits == 0

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not re-trace")

        monkeypatch.setattr(worker, "trace_workload", boom)
        hot = SimulationSession(config(cache_dir=cache_dir))
        hot_idx = dict(hot.indexes())
        assert hot.stats.traced == 0
        assert hot.stats.cache_hits == 2
        assert trace_bytes(hot) == trace_bytes(warm)
        warm_idx = dict(warm.indexes())
        for name in WORKLOADS:
            assert index_shape(hot_idx[name]) == index_shape(warm_idx[name])

    def test_cache_key_invalidates_on_scale_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        rescaled = SimulationSession(config(cache_dir=cache_dir, scale=2))
        rescaled.indexes()
        assert rescaled.stats.traced == 2
        assert rescaled.stats.cache_hits == 0

    def test_cache_key_invalidates_on_budget_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        rebudgeted = SimulationSession(config(
            cache_dir=cache_dir, max_instructions=LIMIT // 2))
        rebudgeted.indexes()
        assert rebudgeted.stats.traced == 2

    def test_key_embeds_format_version_and_fingerprint(self):
        key = TraceCache.key("swim", 1, LIMIT, "aaaa")
        assert "-v%d-" % TRACE_FORMAT_VERSION in key
        assert key != TraceCache.key("swim", 2, LIMIT, "aaaa")
        assert key != TraceCache.key("swim", 1, LIMIT + 1, "aaaa")
        assert key != TraceCache.key("swim", 1, LIMIT, "bbbb")

    def test_program_fingerprint_tracks_content(self):
        from repro.isa import assemble
        from repro.pipeline.cache import program_fingerprint
        src_a = "main:\n    li t0, 1\n    halt\n"
        src_b = "main:\n    li t0, 2\n    halt\n"
        fp_a = program_fingerprint(assemble(src_a))
        fp_b = program_fingerprint(assemble(src_b))
        assert fp_a == program_fingerprint(assemble(src_a))   # stable
        assert fp_a != fp_b                       # content-sensitive

    def test_each_program_packed_once_per_session_trace(self, tmp_path,
                                                      monkeypatch):
        """The cache-key fingerprint and the tracer share one packed
        form, memoized on the program."""
        from repro.cpu import machine
        from repro.workloads import get
        real = machine.pack_program
        packed = []
        monkeypatch.setattr(machine, "pack_program",
                            lambda program: packed.append(program.name)
                            or real(program))
        for name in WORKLOADS:     # compile fresh programs
            monkeypatch.setattr(get(name), "_program_cache", {})
        session = SimulationSession(config(cache_dir=str(tmp_path)))
        session.ensure_traced()
        assert session.stats.traced == len(WORKLOADS)
        assert sorted(packed) == sorted(WORKLOADS)

    def test_stale_entry_ignored_after_program_change(self, tmp_path,
                                                      monkeypatch):
        # Same name/scale/budget but different program content must not
        # hit: fake a changed program by perturbing the fingerprint.
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        from repro.pipeline import cache as cache_mod
        from repro.pipeline import session as session_mod
        real = cache_mod.program_fingerprint
        monkeypatch.setattr(session_mod, "program_fingerprint",
                            lambda program: real(program)[::-1])
        changed = SimulationSession(config(cache_dir=cache_dir))
        changed.indexes()
        assert changed.stats.traced == 2
        assert changed.stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss_and_retraced(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = SimulationSession(config(cache_dir=cache_dir))
        first.indexes()
        # Truncate every cache entry mid-file.
        for entry in os.listdir(cache_dir):
            path = os.path.join(cache_dir, entry)
            data = open(path, "rb").read()
            open(path, "wb").write(data[:len(data) // 2])
        second = SimulationSession(config(cache_dir=cache_dir))
        second_idx = dict(second.indexes())
        assert second.stats.traced == 2
        assert trace_bytes(second) == trace_bytes(first)
        first_idx = dict(first.indexes())
        for name in WORKLOADS:
            assert index_shape(second_idx[name]) \
                == index_shape(first_idx[name])


class TestStreamingDetection:
    def test_streamed_index_matches_in_memory(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).indexes()
        streamed = SimulationSession(config(cache_dir=cache_dir))
        # index() before trace() streams records from the cache ...
        streamed_idx = {name: streamed.index(name) for name in WORKLOADS}
        assert not streamed._traces and not streamed._columns, \
            "streaming must not hold the trace"
        inmem = SimulationSession(config())
        for name in WORKLOADS:
            assert index_shape(streamed_idx[name]) \
                == index_shape(inmem.index(name))


def columns_state(columns):
    header, batches = columns
    return header, [(list(b.seqs), list(b.pcs), list(b.kinds),
                     list(b.takens), list(b.targets)) for b in batches]


def shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()


class TestWorker:
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache"])
    def test_one_return_shape(self, tmp_path, cached):
        """Names and Workload objects, inline and pooled, all come back
        as ``(TraceHeader, [RecordBatch])`` columns; a cache gets a v3
        entry, and no shared-memory segment is left behind."""
        from repro.workloads import get

        def cache(label):
            return str(tmp_path / label) if cached else None

        def assert_v3_entries(cache_dir, names):
            if cache_dir is None:
                return
            entries = sorted(os.listdir(cache_dir))
            assert [e.split("-")[0] for e in entries] == sorted(names)
            for entry in entries:
                with open(os.path.join(cache_dir, entry), "rb") as fh:
                    assert fh.read(4) == b"CFT3"

        by_name = worker.trace_workload("go", 1, LIMIT, cache("name"))
        by_object = worker.trace_workload(get("go"), 1, LIMIT,
                                          cache("object"))
        assert by_name[0] == by_object[0] == "go"
        assert columns_state(by_name[1]) == columns_state(by_object[1])
        assert_v3_entries(cache("name"), ["go"])
        assert_v3_entries(cache("object"), ["go"])

        before = shm_entries()
        session = SimulationSession(config(jobs=2,
                                           cache_dir=cache("pool")))
        session.ensure_traced()
        assert shm_entries() <= before
        assert session.stats.traced == 2
        assert columns_state(session._columns["go"]) \
            == columns_state(by_name[1])
        assert_v3_entries(cache("pool"), WORKLOADS)

    def test_worker_payload_roundtrip(self):
        """The worker's columns survive the pickle the pool's result
        pipe applies, record for record."""
        import pickle
        name, payload = worker.trace_workload("go", 1, LIMIT, None)
        assert name == "go"
        header, batches = pickle.loads(pickle.dumps(payload))
        assert header.total_instructions == LIMIT or header.halted
        assert header.records == sum(len(b) for b in batches)
        assert columns_state((header, batches)) == columns_state(payload)

    def test_inline_worker_keeps_columns(self, tmp_path):
        from repro.trace.batch import RecordBatch
        cache_dir = str(tmp_path / "cache")
        name, (header, batches) = worker.trace_workload("go", 1, LIMIT,
                                                        cache_dir)
        assert all(isinstance(b, RecordBatch) for b in batches)
        assert header.records == sum(len(b) for b in batches)
        assert os.listdir(cache_dir)   # still persisted for next time


class TestColumnsEndToEnd:
    """Cold tracing never decodes records: the interpreter's columns
    feed the cache writer, the detector and every pass directly."""

    EXPERIMENTS = ["table1", "figure4", "figure5", "figure6", "table2",
                   "baselines", "ablations"]

    def _analyze(self, cache_dir):
        from repro.experiments.runner import build_suite
        session = SimulationSession(config(cache_dir=cache_dir))
        suite, _ = build_suite(self.EXPERIMENTS)
        rendered = []
        for result in session.analyze(suite):
            for table in (result if isinstance(result, list)
                          else [result]):
                rendered.append(table.render())
        return rendered, session

    def _indexes(self, cache_dir):
        session = SimulationSession(config(cache_dir=cache_dir))
        shapes = {name: index_shape(session.index(name))
                  for name in WORKLOADS}
        return shapes, session

    @staticmethod
    def _stats(session):
        stats = session.stats
        return stats.traced, stats.cache_hits, stats.replays

    def _forbid_record_decoding(self, monkeypatch):
        import repro.cpu
        import repro.workloads.base
        from repro.core.detector import LoopDetector
        from repro.cpu import tracer
        from repro.trace.batch import RecordBatch

        def boom(*args, **kwargs):
            raise AssertionError("a column path decoded records")

        monkeypatch.setattr(RecordBatch, "iter_records", boom)
        monkeypatch.setattr(LoopDetector, "run", boom)
        for module in (tracer, repro.cpu, repro.workloads.base):
            monkeypatch.setattr(module, "trace_control_flow", boom)

    def test_cold_paths_never_decode_records(self, tmp_path, monkeypatch):
        primed = str(tmp_path / "primed")
        self._analyze(primed)
        # Warm, every pass restores from the derived store: no walk.
        warm, warm_session = self._analyze(primed)
        assert self._stats(warm_session) == (0, 2, 0)
        warm_indexes, _ = self._indexes(primed)

        self._forbid_record_decoding(monkeypatch)
        cold, session = self._analyze(str(tmp_path / "cold"))
        assert cold == warm
        assert self._stats(session) == (2, 0, 2)
        inline, session = self._analyze(None)
        assert inline == warm
        assert self._stats(session) == (2, 0, 2)
        # An index build is one walk per workload, cold or warm.
        indexes, session = self._indexes(str(tmp_path / "sweep"))
        assert indexes == warm_indexes
        assert self._stats(session) == (2, 0, 2)
        # The entries written while tracing stream back warm.
        indexes, session = self._indexes(str(tmp_path / "sweep"))
        assert indexes == warm_indexes
        assert self._stats(session) == (0, 2, 2)


class TestUnregisteredWorkloads:
    def test_session_accepts_unregistered_workload_objects(self):
        from repro.workloads import get
        from repro.workloads.base import Workload
        swim = get("swim")
        clone = Workload("swim-variant", swim.builder, "unregistered",
                         swim.category, default_max_instructions=LIMIT)
        runner = SimulationSession(PipelineConfig(cache_dir=None),
                                   workload_objects=[clone])
        assert runner.trace("swim-variant").total_instructions > 0
        assert len(runner.index("swim-variant")) > 0

    def test_session_traces_unregistered_inline_with_jobs(self, tmp_path):
        from repro.workloads import get
        from repro.workloads.base import Workload
        swim = get("swim")
        clone = Workload("swim-variant", swim.builder, "unregistered",
                         swim.category, default_max_instructions=LIMIT)
        session = SimulationSession(
            PipelineConfig(jobs=4, max_instructions=LIMIT,
                           cache_dir=str(tmp_path / "cache")),
            workload_objects=[clone, get("go")])
        names = [name for name, _ in session.indexes()]
        assert names == ["swim-variant", "go"]
        assert session.stats.traced == 2


class TestWarmIsALookup:
    """Every stock pass restores its per-workload result from the
    derived store, so a warm ``runner all`` walks no trace at all;
    passes that do need the index or the record stream still get
    exactly the replay's."""

    @staticmethod
    def _analyze(cache_dir, *extra):
        from repro.experiments.runner import EXPERIMENT_ORDER, build_suite
        session = SimulationSession(config(cache_dir=cache_dir))
        suite, _ = build_suite(list(EXPERIMENT_ORDER))
        for analysis in extra:
            suite.add(analysis)
        out = []
        for result in session.analyze(suite)[:len(EXPERIMENT_ORDER)]:
            for table in (result if isinstance(result, list)
                          else [result]):
                out.append(table.render())
                out.append(table.to_json())
        return out, session

    @pytest.fixture(scope="class")
    def primed(self, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("primed"))
        cold, session = self._analyze(cache_dir)
        assert session.stats.replays == len(WORKLOADS)
        return cache_dir, cold

    @staticmethod
    def _forbid_walks(monkeypatch):
        from repro.core.branchpred import BranchPredictionStream
        from repro.core.dataspec.stats import DataSpeculationAnalyzer
        from repro.core.detector import LoopDetector
        from repro.core.speculation import grid
        from repro.core.speculation.engine import SpeculationEngine
        from repro.core.tables import TableHitRatioSimulator
        from repro.cpu.tracer import ChunkedCFTracer, ChunkedFullTracer

        def boom(*args, **kwargs):
            raise AssertionError("a warm lookup did real work")

        for owner, attr in (
                (TraceCache, "open_batches"),
                (LoopDetector, "feed_batch"),
                (LoopDetector, "run_batches"),
                (TableHitRatioSimulator, "replay_columns"),
                (BranchPredictionStream, "feed_batch"),
                (SpeculationEngine, "run"),
                (grid, "grid_tables"),
                (DataSpeculationAnalyzer, "analyze_batches"),
                (ChunkedCFTracer, "batches"),
                (ChunkedFullTracer, "batches")):
            monkeypatch.setattr(owner, attr, boom)

    def test_warm_run_is_a_lookup(self, primed, monkeypatch):
        cache_dir, cold = primed
        self._forbid_walks(monkeypatch)
        warm, session = self._analyze(cache_dir)
        assert warm == cold
        assert (session.stats.traced, session.stats.cache_hits,
                session.stats.replays) == (0, len(WORKLOADS), 0)

    def test_finish_only_pass_reads_the_replays_index(self, primed):
        from repro.analysis import Analysis

        class ReadsIndex(Analysis):
            def __init__(self):
                self.shapes = {}
                self.executions = {}

            def finish(self, ctx):
                self.shapes[ctx.name] = index_shape(ctx.index)
                self.executions[ctx.name] = len(ctx.detector.executions)

            def result(self):
                return None

        cache_dir, cold = primed
        reader = ReadsIndex()
        warm, session = self._analyze(cache_dir, reader)
        assert warm == cold
        # One lazy walk per workload, served to the pass and memoized.
        assert session.stats.replays == len(WORKLOADS)
        reference = SimulationSession(config(cache_dir=None))
        for name in WORKLOADS:
            index = reference.index(name)
            assert reader.shapes[name] == index_shape(index)
            assert reader.executions[name] == len(index.executions)
            assert session.index(name) is not None
        assert session.stats.replays == len(WORKLOADS)

    def test_record_consumer_still_gets_a_replay(self, primed):
        from repro.analysis import Analysis

        class CountsRecords(Analysis):
            wants_records = True

            def __init__(self):
                self.records = {}
                self._name = None

            def begin(self, ctx):
                self._name = ctx.name
                self.records[ctx.name] = 0

            def feed_batch(self, batch):
                self.records[self._name] += len(batch)

            def result(self):
                return None

        cache_dir, cold = primed
        counter = CountsRecords()
        warm, session = self._analyze(cache_dir, counter)
        assert warm == cold
        assert session.stats.replays == len(WORKLOADS)
        for name in WORKLOADS:
            assert counter.records[name] == len(
                SimulationSession(config(cache_dir=None))
                .trace(name).records)

    @staticmethod
    def _corrupt_copy(cache_dir, copy, prefix, corrupt):
        """Copy *cache_dir* to *copy*, replacing every derived entry
        whose key starts with *prefix* by ``corrupt(value)``."""
        import json
        import shutil

        shutil.copytree(cache_dir, copy)
        derived = os.path.join(copy, "derived")
        corrupted = 0
        for name in os.listdir(derived):
            path = os.path.join(derived, name)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            for key, value in payload["entries"].items():
                if key.startswith(prefix):
                    payload["entries"][key] = corrupt(value)
                    corrupted += 1
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        assert corrupted >= len(WORKLOADS)

    def _assert_recomputed(self, copy, cold):
        again, _ = self._analyze(copy)
        assert again == cold
        # The recomputed entries were persisted: the next run is a
        # lookup again.
        rerun, session = self._analyze(copy)
        assert rerun == cold
        assert session.stats.replays == 0

    @pytest.mark.parametrize("prefix", [
        "loopstats/", "table-sim/", "branchpred/", "simulate-disable/",
        "cls-sweep/"])
    def test_corrupt_entry_is_recomputed(self, primed, tmp_path, prefix):
        cache_dir, cold = primed
        copy = str(tmp_path / "copy")
        self._corrupt_copy(cache_dir, copy, prefix,
                           lambda value: {"not": "a result"})
        self._assert_recomputed(copy, cold)

    @pytest.mark.parametrize("prefix,impossible", [
        ("table-sim/", lambda counters: [5, 1, -3, 2]),
        ("branchpred/", lambda states: [
            dict(state, closing_correct=9, closing_total=3)
            for state in states]),
        ("loopstats/", lambda value: dict(
            value, stats=dict(value["stats"], executions=-1))),
        ("simulate/", lambda state: dict(state, promoted=-5,
                                         resolved=-5)),
        ("dataspec-stats/", lambda state: dict(
            state, lr_correct=state["lr_total"] + 1)),
    ], ids=["table-sim", "branchpred", "loopstats", "simulate",
            "dataspec"])
    def test_out_of_range_counters_are_recomputed(self, primed, tmp_path,
                                                  prefix, impossible):
        """Integer counters no replay can produce (hit ratios of 500%,
        an accuracy of 300%, negative counts) are a miss, not a row
        above 100% or below zero."""
        cache_dir, cold = primed
        copy = str(tmp_path / "copy")
        self._corrupt_copy(cache_dir, copy, prefix, impossible)
        self._assert_recomputed(copy, cold)

    def test_lookups_are_hits_misses_or_corrupt(self, primed, tmp_path,
                                                monkeypatch):
        """Every store lookup counts exactly once: a rejected entry is
        ``derived.corrupt``, not a hit."""
        from repro.obs import collector as obs
        from repro.pipeline.derived import DerivedStore

        cache_dir, cold = primed
        copy = str(tmp_path / "copy")
        self._corrupt_copy(cache_dir, copy, "loopstats/",
                           lambda value: {"not": "a result"})
        lookups = []
        real_get = DerivedStore.get
        monkeypatch.setattr(DerivedStore, "get", lambda self, key: (
            lookups.append(key), real_get(self, key))[1])
        collector = obs.activate(obs.Collector())
        try:
            again, _ = self._analyze(copy)
        finally:
            obs.deactivate()
        assert again == cold
        counters = collector.counters
        assert counters["derived.corrupt"] == len(WORKLOADS)
        assert (counters.get("derived.hits", 0)
                + counters.get("derived.misses", 0)
                + counters["derived.corrupt"]) == len(lookups) > 0
