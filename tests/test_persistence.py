"""Robustness of the persistent state: the derived-results database,
the sweep store and the trace cache.

Each case either recomputes or fails with a clean error:

- a process killed with SIGKILL mid-flush or mid-sweep loses nothing it
  committed, and the rerun prints the same bytes;
- truncated or garbage ``results.sqlite``, ``store.sqlite`` and
  ``.cft`` files: derived results and traces are recomputed, the sweep
  store raises :class:`SweepStoreError`;
- a truncated or garbage ``last-run-manifest.json`` only drops the
  digest line from ``tools/trace_cache.py ls``, and a manifest write
  that fails midway leaves the previous manifest whole;
- a plain file where the cache directory should be only disables
  persistence;
- a busy sweep store says it is busy, never that it is corrupt; a
  derived database locked past one busy timeout is waited for once
  more, and one still busy, or unwritable, counts the persistence it
  gave up (``derived.disabled.busy``/``.unwritable``);
- concurrent runners on one fresh cache agree, on their results and on
  the loop index entries they race to write, and leave it warm.

Read-only directories are not covered: the suite may run as root,
which writes through any permission bits.
"""

import importlib.util
import json
import os
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis import Analysis, AnalysisSuite
from repro.experiments.runner import main as runner_main
from repro.obs import Collector, build_manifest, write_manifest
from repro.obs import collector as obs
from repro.obs.manifest import LAST_RUN_MANIFEST, events_path
from repro.pipeline import derived
from repro.pipeline import SimulationSession
from repro.pipeline.derived import DB_NAME, DerivedCache
from repro.sweep import SweepSpec, SweepStore, SweepStoreError
from repro.trace import load_cf_trace

WORKLOADS = "swim,go"
LIMIT = "20000"
#: A small sensitivity grid: 12 cells per workload.
SWEEP_FLAGS = ["--workloads", WORKLOADS, "--max-instructions", LIMIT,
               "--spawn-cost", "0,8", "--tus", "2,4"]


def _env():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONUNBUFFERED="1",
                PYTHONPATH=src if not path else src + os.pathsep + path)


def _spawn(args):
    """A child process running ``python *args*`` with ``src`` on its
    path and unbuffered output."""
    return subprocess.Popen([sys.executable] + list(args), env=_env(),
                            stdout=subprocess.PIPE, text=True)


def _kill(child):
    child.send_signal(signal.SIGKILL)
    child.communicate(timeout=60)
    assert child.returncode == -signal.SIGKILL


def _runner(capsys, *args):
    """``runner *args*`` in process: ``(exit code, results, replays)``
    with the bracketed status lines dropped from the results."""
    code = runner_main(list(args))
    out = capsys.readouterr().out
    lines = out.splitlines(keepends=True)
    replays = re.search(r"(\d+) replay\(s\)", out)
    return (code, "".join(line for line in lines
                          if not line.startswith("[")),
            replays and int(replays.group(1)))


def _all(capsys, *args):
    return _runner(capsys, "all", "--workloads", WORKLOADS,
                   "--max-instructions", LIMIT, "--format", "csv", *args)


@pytest.fixture
def expected(capsys):
    code, out, _ = _all(capsys, "--no-cache")
    assert code == 0 and out
    return out


def _prime(capsys, cache_dir):
    code, out, replays = _all(capsys, "--cache-dir", cache_dir)
    assert code == 0 and replays == 2
    return out


def _files(directory):
    """``{name: bytes}`` of the files in *directory*."""
    out = {}
    for name in os.listdir(directory):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)


def _garble(path):
    with open(path, "wb") as fh:
        fh.write(b"not a database, not a trace" * 64)


DAMAGE = {"truncated": _truncate, "garbage": _garble}


# ---------------------------------------------------------------------------
# SIGKILL mid-write.
# ---------------------------------------------------------------------------

_FLUSH_LOOP = """
import sys
from repro.pipeline.derived import DerivedCache

cache = DerivedCache(sys.argv[1])
for i in range(100000):
    store = cache.store("w-s1-m100-v3-abc")
    store.put_cells(("k%d/%d" % (i, j), [i, j, "x" * 64])
                    for j in range(200))
    store.flush()
    print(i)
"""


class TestKilledWriters:
    def test_killed_flush_loop_keeps_every_committed_key(self, tmp_path):
        root = str(tmp_path / "cache")
        child = _spawn(["-c", _FLUSH_LOOP, root])
        acked = -1
        try:
            while acked < 20:
                acked = int(child.stdout.readline())
        finally:
            _kill(child)
        cache = DerivedCache(root)
        entries = cache.read("w-s1-m100-v3-abc")
        for i in range(acked + 1):
            for j in range(200):
                assert entries["k%d/%d" % (i, j)] == [i, j, "x" * 64]
        # The database survived the kill: it takes new rows.
        store = cache.store("w-s1-m100-v3-abc")
        store.put("after", 1)
        store.flush()
        cache.close()
        assert DerivedCache(root).read("w-s1-m100-v3-abc")["after"] == 1

    def test_killed_run_reruns_byte_identical(self, tmp_path, capsys,
                                              expected):
        cache_dir = str(tmp_path / "cache")
        database = os.path.join(cache_dir, "derived", DB_NAME)
        child = _spawn(["-m", "repro.experiments.runner", "all",
                        "--workloads", WORKLOADS, "--max-instructions",
                        LIMIT, "--format", "csv", "--cache-dir",
                        cache_dir])
        deadline = time.monotonic() + 120
        while not os.path.exists(database) and child.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        if child.poll() is None:
            _kill(child)
        else:
            child.communicate()
        assert _all(capsys, "--cache-dir", cache_dir)[:2] == (0, expected)
        assert _all(capsys, "--cache-dir", cache_dir) == (0, expected, 0)

    def test_killed_sweep_keeps_its_cells_and_resumes(self, tmp_path,
                                                      capsys):
        store_dir = str(tmp_path / "store")
        cache_dir = str(tmp_path / "cache")
        flags = SWEEP_FLAGS + ["--store", store_dir,
                               "--cache-dir", cache_dir]
        child = _spawn(["-m", "repro.experiments.runner", "sweep",
                        "sensitivity"] + flags)
        for line in child.stdout:
            if "stored" in line:
                break
        _kill(child)
        with SweepStore(store_dir) as store:
            _, done, _ = store.counts()
        assert done >= 12           # the first workload's checkpoint
        assert runner_main(["sweep", "sensitivity"] + flags) == 0
        out = capsys.readouterr().out
        assert "skipped %d, executed %d" % (done, 24 - done) in out
        report, direct = str(tmp_path / "report"), str(tmp_path / "direct")
        assert runner_main(["query", "--report", "--store", store_dir,
                            "--output-dir", report]) == 0
        assert runner_main(["sensitivity"] + SWEEP_FLAGS
                           + ["--no-cache", "--output-dir", direct]) == 0
        assert _files(report) == _files(direct)


# ---------------------------------------------------------------------------
# Truncated and garbage files.
# ---------------------------------------------------------------------------

class TestDamagedFiles:
    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_derived_database_is_recomputed(self, tmp_path, capsys,
                                            expected, damage):
        cache_dir = str(tmp_path / "cache")
        _prime(capsys, cache_dir)
        DAMAGE[damage](os.path.join(cache_dir, "derived", DB_NAME))
        code, out, replays = _all(capsys, "--cache-dir", cache_dir)
        assert (code, out) == (0, expected)
        assert replays > 0
        # The damaged database was replaced: the next run is a lookup.
        assert _all(capsys, "--cache-dir", cache_dir) == (0, expected, 0)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_trace_entries_are_retraced(self, tmp_path, capsys, expected,
                                        damage):
        cache_dir = str(tmp_path / "cache")
        _prime(capsys, cache_dir)
        paths = [os.path.join(cache_dir, name)
                 for name in os.listdir(cache_dir) if name.endswith(".cft")]
        assert len(paths) == 2
        for path in paths:
            DAMAGE[damage](path)
        # Without derived results every workload needs its trace; a
        # truncated one fails mid-replay and is walked again, re-traced.
        shutil.rmtree(os.path.join(cache_dir, "derived"))
        code, out, replays = _all(capsys, "--cache-dir", cache_dir)
        assert (code, out) == (0, expected)
        assert replays == (4 if damage == "truncated" else 2)
        for path in paths:
            load_cf_trace(path)         # rewritten whole

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_sweep_store_is_a_clean_error(self, tmp_path, capsys, damage):
        store_dir = str(tmp_path / "store")
        flags = SWEEP_FLAGS + ["--store", store_dir,
                               "--cache-dir", str(tmp_path / "cache")]
        assert runner_main(["sweep", "sensitivity"] + flags) == 0
        DAMAGE[damage](os.path.join(store_dir, "store.sqlite"))
        capsys.readouterr()
        assert runner_main(["query", "--store", store_dir]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep store ")
        assert "corrupt" in err and "sweeps clear" in err

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_manifest_only_drops_the_digest_line(self, tmp_path, capsys,
                                                  damage):
        cache_dir = str(tmp_path / "cache")
        metrics = str(tmp_path / "run.json")
        _prime(capsys, cache_dir)
        assert _all(capsys, "--cache-dir", cache_dir,
                    "--metrics", metrics)[0] == 0
        spec = importlib.util.spec_from_file_location(
            "trace_cache_tool", os.path.join(
                os.path.dirname(os.path.dirname(os.path.abspath(
                    __file__))), "tools", "trace_cache.py"))
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.main(["ls", "--cache-dir", cache_dir]) == 0
        listed = capsys.readouterr().out.splitlines()
        digest = [line for line in listed
                  if line.startswith("last instrumented run")]
        assert len(digest) == 1
        DAMAGE[damage](os.path.join(cache_dir, LAST_RUN_MANIFEST))
        assert tool.main(["ls", "--cache-dir", cache_dir]) == 0
        assert capsys.readouterr().out.splitlines() \
            == [line for line in listed if line not in digest]

    def test_failed_manifest_write_keeps_the_previous_one(self, tmp_path):
        """A write that raises midway -- here, a counter JSON cannot
        encode -- leaves the manifest and its event stream as they were,
        with no temp file beside them."""
        path = str(tmp_path / "run.json")
        collector = Collector()
        collector.add("pipeline.replays", 2)
        manifest = build_manifest(collector, argv=["all"], command="run")
        assert write_manifest(manifest, path) == [path, events_path(path)]
        before = _files(str(tmp_path))
        broken = json.loads(json.dumps(manifest))
        broken["counters"]["pipeline.replays"] = object()
        with pytest.raises(TypeError):
            write_manifest(broken, path)
        assert _files(str(tmp_path)) == before


# ---------------------------------------------------------------------------
# Blocked, busy and shared stores.
# ---------------------------------------------------------------------------

class TestBlockedAndShared:
    def test_file_where_the_cache_should_be(self, tmp_path, capsys,
                                            expected):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory should be")
        assert _all(capsys, "--cache-dir", str(blocker))[:2] \
            == (0, expected)
        assert blocker.read_text().startswith("a file")

    def test_file_where_the_store_should_be(self, tmp_path, capsys):
        blocker = tmp_path / "store"
        blocker.write_text("a file where the store directory should be")
        assert runner_main(["query", "--store", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sweep store ")
        assert "is not writable" in err and "clear" not in err

    def test_busy_sweep_store_is_not_called_corrupt(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(derived, "BUSY_TIMEOUT", 0.05)
        root = str(tmp_path / "store")
        spec = SweepSpec(experiment="sensitivity", workloads=("swim",),
                         max_instructions=5000)
        with SweepStore(root) as store:
            store.record_sweep(spec, ["a"])
        opened = SweepStore(root)
        opened.sweeps()
        holder = sqlite3.connect(os.path.join(root, "store.sqlite"),
                                 isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            for call in (SweepStore(root).sweeps,
                         lambda: opened.record_sweep(spec, ["b"]),
                         lambda: opened.put_cells([{"cell_key": "c"}]),
                         opened.prune):
                with pytest.raises(SweepStoreError) as info:
                    call()
                message = str(info.value)
                assert "is busy" in message, message
                assert "corrupt" not in message
                assert "clear" not in message
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        # Once the lock is gone the store works again, nothing lost.
        assert [row[0] for row in opened.sweeps()] == [spec.sweep_id]
        opened.close()

    def test_busy_derived_database_is_a_miss_not_a_loss(self, tmp_path,
                                                        monkeypatch):
        monkeypatch.setattr(derived, "BUSY_TIMEOUT", 0.05)
        root = str(tmp_path)
        store = DerivedCache(root).store("t")
        store.put("k", 1)
        store.flush()
        store.cache.close()
        holder = sqlite3.connect(os.path.join(root, "derived", DB_NAME),
                                 isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            busy = DerivedCache(root).store("t")
            assert busy.get("k") is None
            busy.put("k2", 2)
            busy.flush()                # skipped, not an error
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert DerivedCache(root).read("t") == {"k": 1}

    def test_busy_derived_database_is_counted(self, tmp_path, capsys,
                                              expected, monkeypatch):
        """A run whose derived database another connection holds
        locked prints the same results and counts the persistence it
        gave up once, as ``derived.disabled.busy``."""
        cache_dir = str(tmp_path / "cache")
        _prime(capsys, cache_dir)
        monkeypatch.setattr(derived, "BUSY_TIMEOUT", 0.05)
        metrics = str(tmp_path / "run.json")
        holder = sqlite3.connect(os.path.join(cache_dir, "derived",
                                              DB_NAME),
                                 isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            code, out, _ = _all(capsys, "--cache-dir", cache_dir,
                                "--metrics", metrics)
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert (code, out) == (0, expected)
        assert _disabled_counters([metrics]) \
            == {metrics: {"derived.disabled.busy": 1}}

    def test_unwritable_derived_database_is_counted(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory should be")
        collector = obs.activate(Collector())
        try:
            store = DerivedCache(str(blocker)).store("t")
            assert store.get("k") is None
            store.put("k", 1)
            store.flush()               # skipped, not an error
        finally:
            obs.deactivate()
        assert {name: value for name, value in collector.counters.items()
                if name.startswith("derived.disabled.")} \
            == {"derived.disabled.unwritable": 1}

    def test_concurrent_runners_agree_and_leave_the_cache_warm(
            self, tmp_path, capsys, expected):
        cache_dir = str(tmp_path / "cache")
        args = ["-m", "repro.experiments.runner", "all", "--workloads",
                WORKLOADS, "--max-instructions", LIMIT, "--format", "csv",
                "--cache-dir", cache_dir]
        # Each runner's manifest says whether it gave up persisting its
        # derived results (a busy store), the usual reason a warm rerun
        # would still walk traces.
        manifests = [str(tmp_path / ("runner-%d.json" % i))
                     for i in range(3)]
        children = [_spawn(args + ["--metrics", path])
                    for path in manifests]
        for child in children:
            out, _ = child.communicate(timeout=300)
            assert child.returncode == 0
            assert "".join(line for line in out.splitlines(True)
                           if not line.startswith("[")) == expected
        disabled = "derived persistence given up, per runner: %r" \
            % _disabled_counters(manifests)
        assert _all(capsys, "--cache-dir", cache_dir) \
            == (0, expected, 0), disabled
        assert sorted(os.listdir(os.path.join(cache_dir, "derived"))) \
            == [DB_NAME], disabled
        # Every runner stored each workload's index; whichever wrote
        # last, the entry is the detector's index, and a rerun that
        # needs the indexes reads each one instead of walking a trace.
        reader = _IndexReader()
        session = SimulationSession(
            workloads=tuple(WORKLOADS.split(",")),
            max_instructions=int(LIMIT), cache_dir=cache_dir)
        session.analyze(AnalysisSuite([reader]))
        assert (session.stats.replays, session.stats.index_hits) \
            == (0, 2)
        fresh = _IndexReader()
        SimulationSession(workloads=tuple(WORKLOADS.split(",")),
                          max_instructions=int(LIMIT),
                          cache_dir=None).analyze(AnalysisSuite([fresh]))
        assert reader.fields == fresh.fields

    def test_busy_read_waits_a_second_timeout(self, tmp_path,
                                              monkeypatch):
        """A derived database locked past one :data:`BUSY_TIMEOUT` is
        tried once more on a fresh connection, so another runner's
        long write delays this one's entries instead of dropping
        them."""
        import threading

        monkeypatch.setattr(derived, "BUSY_TIMEOUT", 1.0)
        root = str(tmp_path)
        first = DerivedCache(root).store("t")
        first.put("k", 1)
        first.flush()
        first.cache.close()
        holder = sqlite3.connect(os.path.join(root, "derived", DB_NAME),
                                 isolation_level=None,
                                 check_same_thread=False)
        holder.execute("BEGIN EXCLUSIVE")
        # Released inside the second wait: after the first timeout
        # (1.0 s), before the second ends (about 2.0 s).
        release = threading.Timer(1.5, holder.execute, ("ROLLBACK",))
        collector = obs.activate(Collector())
        try:
            release.start()
            store = DerivedCache(root).store("t")
            assert store.get("k") == 1
            store.put("k2", 2)
            store.flush()
            store.cache.close()
        finally:
            obs.deactivate()
            release.join()
            holder.close()
        assert DerivedCache(root).read("t") == {"k": 1, "k2": 2}
        assert not [name for name in collector.counters
                    if name.startswith("derived.disabled.")]


class _IndexReader(Analysis):
    """Keeps every workload's loop index as comparable fields."""

    def __init__(self):
        self.fields = {}

    def finish(self, ctx):
        cols = ctx.index.columns
        self.fields[ctx.name] = (
            ctx.index.total_instructions, bytes(cols.etypes),
            cols.seqs, cols.loops, cols.exec_ids, cols.auxs,
            cols.start_rows, cols.end_rows, bytes(cols.end_reasons),
            list(cols.iteration_positions.items()))

    def result(self):
        return self.fields


def _disabled_counters(manifests):
    """``{manifest path: {counter: value}}`` of the
    ``derived.disabled.*`` counters in each run manifest (an unreadable
    manifest maps to its error)."""
    found = {}
    for path in manifests:
        try:
            with open(path) as fh:
                counters = json.load(fh)["counters"]
        except (OSError, ValueError, KeyError) as exc:
            found[path] = repr(exc)
            continue
        found[path] = {name: value for name, value in counters.items()
                       if name.startswith("derived.disabled.")}
    return found
