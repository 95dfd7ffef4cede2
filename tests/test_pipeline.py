"""Tests for the parallel simulation pipeline: process-pool tracing,
the on-disk trace cache, and streaming loop detection.

Kept fast with a two-workload subset and a small instruction budget;
the parallel paths still exercise a real ``ProcessPoolExecutor``.
"""

import os

import pytest

from repro.analysis import Analysis, AnalysisSuite
from repro.pipeline import (
    PipelineConfig,
    SimulationSession,
    TraceCache,
    default_cache_dir,
)
from repro.pipeline import worker
from repro.trace.io import TRACE_FORMAT_VERSION

from capture import load
from records import dumps, iter_records, loads
from reference.events import index_records

WORKLOADS = ("swim", "go")
LIMIT = 40_000


def config(**kwargs):
    kwargs.setdefault("workloads", WORKLOADS)
    kwargs.setdefault("max_instructions", LIMIT)
    return PipelineConfig(**kwargs)


def trace_bytes(loaded):
    return {name: dumps(trace)
            for name, (trace, _) in loaded.items()}


def index_shape(index):
    return (len(index), len(index.columns), index.total_instructions,
            sorted((r.exec_id, r.loop, r.start_seq, r.end_seq,
                    r.iterations, tuple(r.iter_seqs))
                   for r in index_records(index).values()))


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

    def test_default_cache_dir_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "/tmp/elsewhere")
        assert default_cache_dir() == "/tmp/elsewhere"


class TestSessionBasics:
    def test_indexes_in_configured_order(self):
        session = SimulationSession(config(workloads=("go", "swim")))
        assert list(load(session)) == ["go", "swim"]

    def test_kwargs_construction(self):
        session = SimulationSession(workloads=WORKLOADS,
                                    max_instructions=LIMIT)
        assert session.config == config()
        with pytest.raises(TypeError):
            SimulationSession(config(), scale=2)

    def test_unknown_workload(self):
        with pytest.raises(KeyError):
            SimulationSession(config(workloads=("swim", "spice")))


class TestParallelEqualsSequential:
    def test_traces_byte_identical_and_indexes_match(self, tmp_path):
        seq = SimulationSession(config(jobs=1))
        par = SimulationSession(config(
            jobs=4, cache_dir=str(tmp_path / "cache")))
        seq_loaded = load(seq)
        par_loaded = load(par)
        assert trace_bytes(seq_loaded) == trace_bytes(par_loaded)
        for name in WORKLOADS:
            assert index_shape(seq_loaded[name][1]) \
                == index_shape(par_loaded[name][1])

    def test_parallel_without_cache(self, capsys):
        """Pool workers hand traces over through the cache only, so a
        cacheless pooled config is refused -- as a one-line CLI error,
        not a traceback."""
        from repro.experiments.runner import main

        with pytest.raises(ValueError, match="jobs > 1 needs"):
            config(jobs=2)
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--workloads", "swim", "--no-cache",
                  "--jobs", "2"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "jobs > 1 needs" in errors[0]
        assert "Traceback" not in captured.err

    def test_unwritable_cache_traces_each_workload_once(self, tmp_path):
        """A pooled run whose cache cannot be written (``cache_dir`` is
        a regular file) fans out nothing and traces inline at each
        workload's turn: the same results, and each workload one
        ``traced`` and one ``trace`` span."""
        from repro.experiments.runner import build_suite
        from repro.obs import collector as obs

        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")

        def rendered(**kwargs):
            session = SimulationSession(config(**kwargs))
            suite, _ = build_suite(["table1", "figure4"])
            tables = [table.render() for result in session.analyze(suite)
                      for table in (result if isinstance(result, list)
                                    else [result])]
            return tables, session.stats

        collector = obs.activate(obs.Collector())
        try:
            pooled, stats = rendered(jobs=2, cache_dir=str(blocked))
        finally:
            obs.deactivate()
        serial, _ = rendered()
        assert pooled == serial
        assert (stats.traced, stats.cache_hits) == (len(WORKLOADS), 0)
        traced = [span["attrs"] for span in collector.spans
                  if span["name"] == "trace"]
        assert traced == [{"workload": name, "mode": "inline"}
                          for name in WORKLOADS]
        assert blocked.read_text() == "not a directory"

    def test_lone_miss_is_analyzed_from_memory(self, tmp_path):
        """At ``jobs=2`` the pool fans out for two or more cache misses
        only: a lone miss is traced at its workload's turn and analyzed
        from that fresh trace, never decoded back from the cache."""
        from repro.experiments.runner import build_suite
        from repro.obs import collector as obs

        def observed(cache_dir, **kwargs):
            session = SimulationSession(config(
                cache_dir=str(tmp_path / cache_dir), **kwargs))
            suite, _ = build_suite(["table1"])
            collector = obs.activate(obs.Collector())
            try:
                session.analyze(suite)
            finally:
                obs.deactivate()
            return session.stats, collector

        def attrs(collector, name):
            return [span["attrs"] for span in collector.spans
                    if span["name"] == name]

        # swim is cached; go is the one miss.
        observed("lone", workloads=("swim",))
        stats, collector = observed("lone", jobs=2)
        assert (stats.traced, stats.cache_hits) == (1, 1)
        assert attrs(collector, "trace") \
            == [{"workload": "go", "mode": "inline"}]
        assert attrs(collector, "replay") \
            == [{"workload": "go", "source": "memory"}]
        assert "cache.bytes_read" not in collector.counters

        stats, collector = observed("both", jobs=2)
        assert stats.traced == len(WORKLOADS)
        assert [span["workload"] for span in attrs(collector, "trace")
                if span["mode"] == "pool"] == list(WORKLOADS)


class TestCache:
    def test_cache_hit_skips_tracing(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        warm = SimulationSession(config(cache_dir=cache_dir))
        warm_loaded = load(warm)
        assert warm.stats.traced == 2
        assert warm.stats.cache_hits == 0

        def boom(*args, **kwargs):
            raise AssertionError("cache hit must not re-trace")

        monkeypatch.setattr(worker, "trace_workload", boom)
        hot = SimulationSession(config(cache_dir=cache_dir))
        hot_loaded = load(hot)
        assert hot.stats.traced == 0
        assert hot.stats.cache_hits == 2
        assert trace_bytes(hot_loaded) == trace_bytes(warm_loaded)
        for name in WORKLOADS:
            assert index_shape(hot_loaded[name][1]) \
                == index_shape(warm_loaded[name][1])

    def test_cache_key_invalidates_on_scale_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).ensure_traced()
        rescaled = SimulationSession(config(cache_dir=cache_dir, scale=2))
        rescaled.ensure_traced()
        assert rescaled.stats.traced == 2
        assert rescaled.stats.cache_hits == 0

    def test_cache_key_invalidates_on_budget_change(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).ensure_traced()
        rebudgeted = SimulationSession(config(
            cache_dir=cache_dir, max_instructions=LIMIT // 2))
        rebudgeted.ensure_traced()
        assert rebudgeted.stats.traced == 2

    def test_key_embeds_format_version_and_fingerprint(self):
        key = TraceCache.key("swim", 1, LIMIT, "aaaa")
        assert "-v%d-" % TRACE_FORMAT_VERSION in key
        assert key != TraceCache.key("swim", 2, LIMIT, "aaaa")
        assert key != TraceCache.key("swim", 1, LIMIT + 1, "aaaa")
        assert key != TraceCache.key("swim", 1, LIMIT, "bbbb")

    def test_program_fingerprint_tracks_content(self):
        from assembler import assemble
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
        SimulationSession(config(cache_dir=cache_dir)).ensure_traced()
        from repro.pipeline import cache as cache_mod
        from repro.pipeline import session as session_mod
        real = cache_mod.program_fingerprint
        monkeypatch.setattr(session_mod, "program_fingerprint",
                            lambda program: real(program)[::-1])
        changed = SimulationSession(config(cache_dir=cache_dir))
        changed.ensure_traced()
        assert changed.stats.traced == 2
        assert changed.stats.cache_hits == 0

    def test_corrupt_entry_is_a_miss_and_retraced(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = SimulationSession(config(cache_dir=cache_dir))
        first_loaded = load(first)
        # Truncate every cache entry mid-file.
        for entry in os.listdir(cache_dir):
            path = os.path.join(cache_dir, entry)
            data = open(path, "rb").read()
            open(path, "wb").write(data[:len(data) // 2])
        second = SimulationSession(config(cache_dir=cache_dir))
        second_loaded = load(second)
        assert second.stats.traced == 2
        assert trace_bytes(second_loaded) == trace_bytes(first_loaded)
        for name in WORKLOADS:
            assert index_shape(second_loaded[name][1]) \
                == index_shape(first_loaded[name][1])


#: ``program_fingerprint`` of every analog at scale 1 and of the
#: synthetic candidate ``baseline`` seed 1.  Trace-cache entries and
#: sweep-store cell keys embed these digests: a change to them orphans
#: every entry and cell filled before it.
FINGERPRINTS = {
    "applu": "6f832c82c75d0758",
    "apsi": "45a0e31e56396363",
    "compress": "1b28e0d78b7cc008",
    "fpppp": "3e6145969e7b40a9",
    "gcc": "ed196c0e6ffde708",
    "go": "b55f826458eae8c4",
    "hydro2d": "cdccdbedb8e28bbb",
    "ijpeg": "77de9626bbbfa585",
    "li": "fe024e2e8818c858",
    "m88ksim": "50b4a1584577f53f",
    "mgrid": "6853905c1439fd28",
    "perl": "6f1daae6ad54af9a",
    "su2cor": "bda4f75523267fc2",
    "swim": "d1971fa2c48ebdf5",
    "tomcatv": "17db87dc41492eac",
    "turb3d": "f3663300c5d74106",
    "vortex": "2edee5fedf1cf11b",
    "wave5": "9d828d0ac01a37c0",
    "synth-baseline-1": "27a0502eb72b1876",
}


class TestFingerprintPins:
    @pytest.mark.parametrize("name", sorted(FINGERPRINTS))
    def test_fingerprint_is_pinned(self, name):
        from repro.pipeline.cache import program_fingerprint
        from repro.workloads import get

        assert program_fingerprint(get(name).program(1)) \
            == FINGERPRINTS[name]

    def test_every_analog_is_pinned(self):
        from repro.workloads.suite import SUITE_ORDER

        assert set(FINGERPRINTS) == set(SUITE_ORDER) | {"synth-baseline-1"}


class TestStreamingDetection:
    def test_streamed_index_matches_in_memory(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        SimulationSession(config(cache_dir=cache_dir)).ensure_traced()
        streamed = SimulationSession(config(cache_dir=cache_dir))
        streamed_loaded = load(streamed)
        assert (streamed.stats.traced, streamed.stats.cache_hits) \
            == (0, len(WORKLOADS))
        inmem = load(SimulationSession(config()))
        for name in WORKLOADS:
            assert index_shape(streamed_loaded[name][1]) \
                == index_shape(inmem[name][1])


def columns_state(trace):
    return trace.header, [(list(b.seqs), list(b.pcs), list(b.kinds),
                           list(b.takens), list(b.targets))
                          for b in trace.batches]


def shm_entries():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") \
        else set()


class TestWorker:
    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache"])
    def test_one_return_shape(self, tmp_path, cached):
        """Names and Workload objects traced inline come back as a
        ``CFTrace`` of the same columns; a cache gets a v3 entry.  The
        pool task returns no trace: ``(name, None)`` without a
        collector, its cache entry decoding to the same columns, and
        no shared-memory segment is left behind."""
        from repro.trace.io import load_cf_trace
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

        task_cache = str(tmp_path / "task")
        assert worker.trace_into_cache("go", 1, LIMIT, task_cache) \
            == ("go", None)
        (entry,) = os.listdir(task_cache)
        assert columns_state(load_cf_trace(
            os.path.join(task_cache, entry))) == columns_state(by_name[1])

        before = shm_entries()
        session = SimulationSession(config(jobs=2,
                                           cache_dir=str(tmp_path / "pool")))
        loaded = load(session)
        assert shm_entries() <= before
        assert session.stats.traced == 2
        assert columns_state(loaded["go"][0]) == columns_state(by_name[1])
        assert_v3_entries(str(tmp_path / "pool"), WORKLOADS)

    def test_worker_payload_roundtrip(self, tmp_path):
        """The worker's trace survives a pickle, record for record --
        and every other source of the same trace gives an equal header
        and equal records: the tracer, the v3 readers, the cache entry
        a pool task wrote under ``jobs=2`` (the task itself returns no
        trace), and the session from memory, from the cache and after
        retracing a truncated cache entry."""
        import pickle
        from repro.cpu import ChunkedCFTracer, trace_control_flow
        from repro.trace.io import load_cf_trace
        from repro.workloads import get

        cache_dir = str(tmp_path / "cache")
        name, payload = worker.trace_workload("go", 1, LIMIT, cache_dir)
        assert name == "go"
        header = payload.header
        assert header.total_instructions == LIMIT or header.halted
        assert header.records == sum(len(b) for b in payload.batches)
        records = list(iter_records(payload))
        (entry,) = os.listdir(cache_dir)
        path = os.path.join(cache_dir, entry)

        def session(**kwargs):
            return SimulationSession(config(**kwargs))

        def go_trace(session):
            return load(session)["go"][0]

        memory = session()
        pooled = session(jobs=2,        # both workloads, in the pool
                         cache_dir=str(tmp_path / "pool"))
        cached = session(cache_dir=cache_dir, workloads=("go",))
        sources = {
            "pickle": pickle.loads(pickle.dumps(payload)),
            "trace_control_flow": trace_control_flow(
                get("go").program(1), LIMIT),
            "columns": ChunkedCFTracer(get("go").program(1),
                                       LIMIT).columns(),
            "session memory": go_trace(memory),
            "session cache": go_trace(cached),
            "load_cf_trace": load_cf_trace(path),
            "loads": loads(dumps(payload)),
            "pool jobs=2": go_trace(pooled),
        }
        assert (cached.stats.traced, cached.stats.cache_hits) == (0, 1)
        assert (pooled.stats.traced, pooled.stats.cache_hits) == (2, 0)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) // 2])
        retraced = session(cache_dir=cache_dir, workloads=("go",))
        sources["session retrace"] = go_trace(retraced)
        assert retraced.stats.traced == 1
        assert columns_state(sources["pickle"]) == columns_state(payload)
        for label, trace in sources.items():
            assert trace.header == header, label
            assert list(iter_records(trace)) == records, label

    def test_inline_worker_keeps_columns(self, tmp_path):
        from repro.trace.batch import RecordBatch
        cache_dir = str(tmp_path / "cache")
        name, trace = worker.trace_workload("go", 1, LIMIT, cache_dir)
        assert all(isinstance(b, RecordBatch) for b in trace.batches)
        assert trace.header.records == sum(len(b) for b in trace.batches)
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
        shapes = {name: index_shape(index)
                  for name, (_, index) in load(session).items()}
        return shapes, session

    @staticmethod
    def _stats(session):
        stats = session.stats
        return stats.traced, stats.cache_hits, stats.replays

    def _forbid_record_decoding(self, monkeypatch):
        import repro.cpu
        from repro.core.detector import LoopDetector
        from repro.cpu import tracer

        def boom(*args, **kwargs):
            raise AssertionError("a column path decoded records")

        monkeypatch.setattr(LoopDetector, "run", boom)
        for module in (tracer, repro.cpu):
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


class TestOneTraceAtATime:
    """A trace lives until its workload finished, and no longer: with
    or without a cache, serial or pooled, no earlier workload's trace
    is alive when a later one finishes, and none is once ``analyze``
    returns.  A cacheless session keeps nothing, so a second
    ``analyze`` traces again; a pooled one needs a cache."""

    NAMES = ("swim", "go", "compress")

    class WatchesTraces(Analysis):
        """A pass that reads each workload's trace and notes, at every
        ``finish``, which earlier workloads' trace columns are still
        alive (a weak reference to each trace's first ``seqs``
        column: the columns are the trace's memory)."""

        def __init__(self):
            self.refs = {}
            self.alive = {}

        def finish(self, ctx):
            import weakref

            self.alive[ctx.name] = self.living()
            self.refs[ctx.name] = weakref.ref(ctx.trace.batches[0].seqs)

        def living(self):
            import gc

            gc.collect()
            return [name for name, ref in self.refs.items()
                    if ref() is not None]

        def result(self):
            return self.alive

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_trace_dies_with_its_workload(self, tmp_path, jobs, cached):
        settings = dict(workloads=self.NAMES, jobs=jobs,
                        cache_dir=str(tmp_path / "cache") if cached
                        else None)
        if jobs > 1 and not cached:
            with pytest.raises(ValueError, match="jobs > 1 needs"):
                config(**settings)
            return
        session = SimulationSession(config(**settings))
        watch = self.WatchesTraces()
        (alive,) = session.analyze(AnalysisSuite([watch]))
        assert alive == {name: [] for name in self.NAMES}
        assert watch.living() == []
        stats = session.stats
        assert (stats.traced, stats.cache_hits, stats.replays) \
            == (len(self.NAMES), 0, len(self.NAMES))

    def test_cacheless_second_analyze_traces_again(self, monkeypatch):
        traced = []
        real = worker.trace_workload

        def counting(workload, *args, **kwargs):
            traced.append(getattr(workload, "name", workload))
            return real(workload, *args, **kwargs)

        monkeypatch.setattr(worker, "trace_workload", counting)
        session = SimulationSession(config(workloads=self.NAMES))
        first = load(session)
        second = load(session)
        assert traced == list(self.NAMES) * 2
        assert trace_bytes(first) == trace_bytes(second)
        stats = session.stats
        assert (stats.traced, stats.cache_hits, stats.replays) \
            == (len(self.NAMES), 0, 2 * len(self.NAMES))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_ensure_traced_only_fills_a_cache(self, tmp_path, monkeypatch,
                                              jobs):
        cache_dir = str(tmp_path / "cache")
        cached = SimulationSession(config(jobs=jobs, cache_dir=cache_dir))
        cached.ensure_traced()
        assert cached.stats.traced == len(WORKLOADS)
        assert sorted(entry.split("-")[0]
                      for entry in os.listdir(cache_dir)
                      if entry.endswith(".cft")) == sorted(WORKLOADS)

        def boom(*args, **kwargs):
            raise AssertionError("a cacheless ensure_traced() traced")

        monkeypatch.setattr(worker, "trace_workload", boom)
        if jobs > 1:
            with pytest.raises(ValueError, match="jobs > 1 needs"):
                config(jobs=jobs)
            return
        cacheless = SimulationSession(config(jobs=jobs))
        with pytest.raises(ValueError, match="has none"):
            cacheless.ensure_traced()
        assert cacheless.stats.traced == 0

    def test_header_from_the_cache_is_one_hit(self, tmp_path):
        """Reading a cached header counts a cache hit, reading the
        trace too counts no second one, and an interpreted workload
        read back from the cache stays one ``traced``."""
        cache_dir = str(tmp_path / "cache")
        cold = SimulationSession(config(cache_dir=cache_dir))
        cold.ensure_traced()
        load(cold)
        assert (cold.stats.traced, cold.stats.cache_hits,
                cold.stats.replays) == (len(WORKLOADS), 0, len(WORKLOADS))
        warm = SimulationSession(config(cache_dir=cache_dir))
        warm.ensure_traced()
        assert (warm.stats.traced, warm.stats.cache_hits,
                warm.stats.replays) == (0, len(WORKLOADS), 0)
        load(warm)
        assert (warm.stats.traced, warm.stats.cache_hits,
                warm.stats.replays) == (0, len(WORKLOADS), len(WORKLOADS))


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

    def test_indexes_die_with_their_workload(self, primed):
        """A finish-only pass reads each workload's index, which
        nothing keeps once its workload finished; a second ``analyze``
        on the same session walks every trace again."""
        import gc
        import weakref

        from repro.analysis import Analysis, AnalysisSuite

        class ReadsIndex(Analysis):
            def __init__(self):
                self.refs = []
                self.shapes = {}

            def finish(self, ctx):
                self.refs.append(weakref.ref(ctx.index))
                self.shapes[ctx.name] = index_shape(ctx.index)

            def result(self):
                return None

        cache_dir, _ = primed
        session = SimulationSession(config(cache_dir=cache_dir))
        reader = ReadsIndex()
        session.analyze(AnalysisSuite([reader]))
        gc.collect()
        assert len(reader.refs) == len(WORKLOADS)
        assert all(ref() is None for ref in reader.refs)
        assert session.stats.replays == len(WORKLOADS)
        session.analyze(AnalysisSuite([ReadsIndex()]))
        assert session.stats.replays == 2 * len(WORKLOADS)
        reference = load(SimulationSession(config(cache_dir=None)))
        for name in WORKLOADS:
            assert reader.shapes[name] == index_shape(reference[name][1])

    def test_record_consumer_still_gets_a_replay(self, primed):
        from repro.analysis import Analysis

        class CountsRecords(Analysis):
            def __init__(self):
                self.records = {}

            def finish(self, ctx):
                self.records[ctx.name] = sum(
                    len(batch) for batch in ctx.trace.batches)

            def result(self):
                return None

        cache_dir, cold = primed
        counter = CountsRecords()
        warm, session = self._analyze(cache_dir, counter)
        assert warm == cold
        assert session.stats.replays == len(WORKLOADS)
        reference = load(SimulationSession(config(cache_dir=None)))
        for name in WORKLOADS:
            assert counter.records[name] \
                == len(list(iter_records(reference[name][0])))

    @staticmethod
    def _corrupt_copy(cache_dir, copy, prefix, corrupt):
        """Copy *cache_dir* to *copy*, replacing every derived entry
        whose key starts with *prefix* by ``corrupt(value)``."""
        import json
        import shutil
        import sqlite3

        from repro.pipeline.derived import DB_NAME

        shutil.copytree(cache_dir, copy)
        conn = sqlite3.connect(os.path.join(copy, "derived", DB_NAME))
        rows = [row for row in conn.execute(
            "SELECT trace_key, key, value FROM derived")
            if row[1].startswith(prefix)]
        with conn:
            conn.executemany(
                "UPDATE derived SET value = ? "
                "WHERE trace_key = ? AND key = ?",
                [(json.dumps(corrupt(json.loads(value))), trace_key, key)
                 for trace_key, key, value in rows])
        conn.close()
        assert len(rows) >= len(WORKLOADS)

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
