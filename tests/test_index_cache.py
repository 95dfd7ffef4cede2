"""Loop index entries in the trace cache.

A session that builds a workload's canonical loop index stores it
beside the trace entry (:meth:`TraceCache.store_index`), and a later
session reads it back instead of decoding the trace and running the
detector again.  A loaded index must equal the detector's field for
field -- column types, the key order of ``iteration_positions`` --
and serve ``prefix``, ``grid_tables`` and the speculation walk the
same.  A missing, truncated, corrupt or other-version entry is a
miss: the index is rebuilt and the entry overwritten.  The entry's
key follows the source of the modules that decide an index, so an
edited detector never reads an index an older one built.
"""

import functools
import os
import shutil

import pytest

from repro.core import cls, detector, events
from repro.core.detector import LoopDetector
from repro.core.events import EventColumns
from repro.core.speculation.grid import grid_tables, simulate_grid
from repro.cpu import trace_control_flow
from repro.pipeline import PipelineConfig, SessionStats, SimulationSession
from repro.pipeline import cache as cache_module
from repro.pipeline.cache import (
    INDEX_SUFFIX,
    TraceCache,
    index_digest,
    parse_index_name,
    program_fingerprint,
)
from repro.search.corpus import frontier_names
from repro.workloads import SUITE_ORDER, get
from repro.workloads.synthetic import make_workload

from capture import load, run_experiment, workload_trace
from test_generator_fuzz import DIFFERENTIAL_BUDGET, PROFILES, SEEDS, _ids

#: Instructions traced per program in the round-trip checks.
BUDGET = 100_000
#: The paper's capacity, and one small enough to overflow.
CAPACITIES = (16, 2)

WORKLOADS = ("swim", "go")
LIMIT = 20_000


def index_fields(index):
    """Every field of *index*, column types and the key order of the
    iteration positions included, comparable with ``==``."""
    cols = index.columns
    columns = [(slot, type(getattr(cols, slot)),
                getattr(getattr(cols, slot), "typecode", None),
                getattr(cols, slot))
               for slot in EventColumns.__slots__
               if slot != "iteration_positions"]
    positions = [(key, type(value), value.typecode, value)
                 for key, value in cols.iteration_positions.items()]
    return (type(index), index.total_instructions, index.cls_capacity,
            columns, positions)


def round_trip(tmp_path, index, name="w"):
    """*index* stored in a fresh cache under *tmp_path* and read back."""
    cache = TraceCache(str(tmp_path))
    entry = (name, 1, index.total_instructions, "f" * 16)
    cache.store_index(index, *entry)
    return cache.load_index(index.cls_capacity, *entry)


def assert_round_trips(tmp_path, trace):
    for capacity in CAPACITIES:
        built = LoopDetector(cls_capacity=capacity).run(trace)
        loaded = round_trip(tmp_path / ("c%d" % capacity), built)
        assert loaded is not None
        assert index_fields(loaded) == index_fields(built)
        for limit in (trace.total_instructions // 4,
                      trace.total_instructions // 2):
            assert index_fields(loaded.prefix(limit)) \
                == index_fields(built.prefix(limit))
        assert tuple(grid_tables(loaded)) == tuple(grid_tables(built))
        configs = [(4, "str", None), (8, "idle", None),
                   (4, "str(2)", "overhead:spawn=8")]
        assert [r.state() for r in simulate_grid(loaded, configs)] \
            == [r.state() for r in simulate_grid(built, configs)]


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(SUITE_ORDER) + frontier_names())
    def test_workload_index_round_trips(self, tmp_path, name):
        assert_round_trips(tmp_path, workload_trace(get(name), 1, BUDGET))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("profile", PROFILES, ids=_ids(PROFILES))
    def test_fuzz_sample_index_round_trips(self, tmp_path, profile, seed):
        budget = min(profile.default_max_instructions, DIFFERENTIAL_BUDGET)
        assert_round_trips(tmp_path, trace_control_flow(
            make_workload(profile, seed).program(), budget))

    def test_capacity_two_has_overflow_ends(self):
        """The capacity-2 round trips above cover overflow ends."""
        index = LoopDetector(cls_capacity=2).run(
            workload_trace(get("applu"), 1, BUDGET))
        assert index.columns.end_reasons.count(events.EndReason.OVERFLOW)

    def test_empty_index_round_trips(self, tmp_path):
        empty = LoopDetector().index(0)
        assert index_fields(round_trip(tmp_path, empty)) \
            == index_fields(empty)


def _session(cache_dir, **kwargs):
    return SimulationSession(PipelineConfig(
        workloads=WORKLOADS, max_instructions=LIMIT, cache_dir=cache_dir,
        **kwargs))


def _index_paths(cache_dir, capacity=16):
    cache = TraceCache(cache_dir)
    paths = []
    for name in WORKLOADS:
        workload = get(name)
        paths.append(cache.index_path(
            capacity, name, 1, LIMIT,
            program_fingerprint(workload.program(1))))
    return paths


def _stats(session):
    stats = session.stats
    return stats.traced, stats.cache_hits, stats.replays, stats.index_hits


def _forbid_trace_walks(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("an index read walked a trace")

    monkeypatch.setattr(TraceCache, "open_batches", boom)
    monkeypatch.setattr(LoopDetector, "run_batches", boom)


def _damage_truncated(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 9)


def _damage_flipped(path):
    # One byte in the middle of the columns: only the checksum sees it.
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))


def _damage_version(path):
    with open(path, "r+b") as fh:
        fh.seek(4)
        fh.write((cache_module.INDEX_FORMAT_VERSION + 1).to_bytes(4,
                                                                  "little"))


def _damage_garbage(path):
    with open(path, "wb") as fh:
        fh.write(b"LIDX not an index")


def _damage_empty(path):
    open(path, "wb").close()


DAMAGE = {"truncated": _damage_truncated, "flipped": _damage_flipped,
          "other-version": _damage_version, "garbage": _damage_garbage,
          "empty": _damage_empty}


class TestSessionReadsTheEntry:
    @pytest.fixture
    def primed(self, tmp_path):
        """A cache whose cold ``table1`` run stored every index; the
        derived store is dropped so the next run needs the indexes."""
        cache_dir = str(tmp_path / "cache")
        session = _session(cache_dir)
        expected = run_experiment("table1", session).render()
        assert _stats(session) == (len(WORKLOADS), 0, len(WORKLOADS), 0)
        assert all(map(os.path.isfile, _index_paths(cache_dir)))
        shutil.rmtree(os.path.join(cache_dir, "derived"))
        return cache_dir, expected

    def test_warm_index_walks_no_trace(self, primed, monkeypatch):
        cache_dir, expected = primed
        _forbid_trace_walks(monkeypatch)
        session = _session(cache_dir)
        assert run_experiment("table1", session).render() == expected
        assert _stats(session) == (0, len(WORKLOADS), 0, len(WORKLOADS))

    def test_record_reader_still_decodes_once(self, primed):
        """A pass that reads the trace decodes it once; the index next
        to it still comes from its entry."""
        cache_dir, _ = primed
        session = _session(cache_dir)
        loaded = load(session)
        assert _stats(session) == (0, len(WORKLOADS), len(WORKLOADS),
                                   len(WORKLOADS))
        fresh = load(_session(None))
        for name in WORKLOADS:
            assert index_fields(loaded[name][1]) \
                == index_fields(fresh[name][1])

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_entry_is_rebuilt(self, primed, damage):
        cache_dir, expected = primed
        paths = _index_paths(cache_dir)
        intact = [open(path, "rb").read() for path in paths]
        for path in paths:
            DAMAGE[damage](path)
        session = _session(cache_dir)
        assert run_experiment("table1", session).render() == expected
        assert _stats(session) == (0, len(WORKLOADS), len(WORKLOADS), 0)
        # Overwritten whole: the next run reads every entry.
        assert [open(path, "rb").read() for path in paths] == intact
        shutil.rmtree(os.path.join(cache_dir, "derived"))
        session = _session(cache_dir)
        assert run_experiment("table1", session).render() == expected
        assert _stats(session) == (0, len(WORKLOADS), 0, len(WORKLOADS))

    def test_other_capacity_is_its_own_entry(self, primed):
        cache_dir, _ = primed
        session = _session(cache_dir, cls_capacity=2)
        run_experiment("table1", session)
        assert _stats(session) == (0, len(WORKLOADS), len(WORKLOADS), 0)
        assert all(map(os.path.isfile, _index_paths(cache_dir, 2)))
        assert all(map(os.path.isfile, _index_paths(cache_dir, 16)))

    def test_ensure_traced_writes_no_index(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        _session(cache_dir).ensure_traced()
        assert not [name for name in os.listdir(cache_dir)
                    if name.endswith(INDEX_SUFFIX)]

    def test_cacheless_session_builds_every_time(self):
        session = _session(None)
        run_experiment("table1", session)
        run_experiment("table1", session)
        assert _stats(session) == (len(WORKLOADS), 0,
                                   2 * len(WORKLOADS), 0)

    def test_unwritable_cache_only_skips_the_entry(self, tmp_path):
        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory should be")
        session = _session(str(blocker))
        assert run_experiment("table1", session).render() \
            == run_experiment("table1", _session(None)).render()
        assert blocker.read_text().startswith("a file")


class TestKey:
    def test_key_names_trace_capacity_version_and_digest(self, tmp_path):
        cache = TraceCache(str(tmp_path))
        path = cache.index_path(16, "swim", 1, LIMIT, "0123456789abcdef")
        name = os.path.basename(path)
        assert name == "%s.c16-i%d-%s%s" % (
            TraceCache.key("swim", 1, LIMIT, "0123456789abcdef"),
            cache_module.INDEX_FORMAT_VERSION, index_digest(),
            INDEX_SUFFIX)
        assert parse_index_name(name) == (
            TraceCache.key("swim", 1, LIMIT, "0123456789abcdef"), 16, True)
        assert parse_index_name(name.replace(index_digest(), "0" * 12)) \
            == (TraceCache.key("swim", 1, LIMIT, "0123456789abcdef"), 16,
                False)
        assert parse_index_name("swim.cft") is None

    @pytest.mark.parametrize("module", [cls, events, detector],
                             ids=["cls", "events", "detector"])
    def test_editing_the_detector_changes_the_key(self, tmp_path,
                                                  monkeypatch, module):
        """An index stored before an edit of ``core/cls.py``,
        ``core/events.py`` or ``core/detector.py`` is never read after
        it: the edited source gives another digest, so another path."""
        cache_dir = str(tmp_path / "cache")
        run_experiment("table1", _session(cache_dir))
        before = _index_paths(cache_dir)
        shutil.rmtree(os.path.join(cache_dir, "derived"))

        loader = module.__spec__.loader
        original = loader.get_data

        def edited(path):
            data = original(path)
            return data + b"\n# edited\n" if path == module.__file__ \
                else data

        monkeypatch.setattr(loader, "get_data", edited)
        monkeypatch.setattr(cache_module, "index_digest", functools.cache(
            cache_module.index_digest.__wrapped__))
        after = _index_paths(cache_dir)
        assert not set(before) & set(after)
        session = _session(cache_dir)
        run_experiment("table1", session)
        assert _stats(session) == (0, len(WORKLOADS), len(WORKLOADS), 0)
        assert all(map(os.path.isfile, after))


def test_session_stats_repr():
    stats = SessionStats()
    stats.traced, stats.cache_hits, stats.replays, stats.index_hits = \
        1, 2, 3, 4
    assert repr(stats) \
        == "SessionStats(traced=1, cache_hits=2, replays=3, index_hits=4)"
    assert str(SessionStats()) \
        == "SessionStats(traced=0, cache_hits=0, replays=0, index_hits=0)"
