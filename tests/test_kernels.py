"""Kernel-layer tests.

Batch fast-path boundary cases (empty/single-record batches, loop
boundaries mid-batch, loops spanning chunk seams), the derived-results
store, result-state round trips, idempotent table replay, the
zero-copy v3 reader, and trace payloads from pool workers.
"""

import json
import os

import pytest

from repro.cpu import trace_control_flow
from repro.core.branchpred import BimodalPredictor, \
    BranchPredictionStream, GSharePredictor
from repro.core.cls import CurrentLoopStack
from repro.core.detector import LoopDetector
from repro.core.tables import TableHitRatioSimulator
from repro.trace import RecordBatch, dump_cf_trace, kernels, \
    open_cf_batches

from assembler import assemble
from records import batch_of, dumps, iter_records, loads, slice_batch
from reference import cut
from reference.events import index_events, index_records
from reference.tables import EventTableReplay

LOOP_SRC = """
main:
    li t0, 0
outer:
    li t1, 0
inner:
    addi t1, t1, 1
    li t2, 5
    blt t1, t2, inner
    addi t0, t0, 1
    li t2, 4
    blt t0, t2, outer
    halt
"""


@pytest.fixture()
def loop_trace():
    return trace_control_flow(assemble(LOOP_SRC))


def event_reprs(index):
    return [repr(e) for e in index_events(index)]


def index_shape(index):
    return sorted((r.exec_id, r.loop, r.start_seq, tuple(r.iter_seqs),
                   r.end_seq, r.iterations, r.reason, r.depth)
                  for r in index_records(index).values())


# ---------------------------------------------------------------------------
# Batch fast-path boundary cases.
# ---------------------------------------------------------------------------

class TestBatchBoundaries:
    def test_empty_batch_is_inert(self):
        empty = batch_of([])
        detector = LoopDetector()
        assert len(detector.feed_batch(empty)) == 0
        cls = CurrentLoopStack()
        assert len(cls.process_batch(empty)) == 0
        assert cls.entries == []
        stream = BranchPredictionStream(
            [BimodalPredictor(), GSharePredictor()])
        stream.feed_batch(empty)
        assert all(r.closing_total == 0 and r.other_total == 0
                   for r in stream.reports("w"))
        assert kernels.backward_branch_mask(empty) == b""
        assert kernels.taken_mask(empty) == b""

    def test_single_record_batches_match_one_batch(self, loop_trace):
        one = LoopDetector()
        idx_one = one.run(loop_trace)
        single = LoopDetector()
        idx_single = single.run_batches(
            cut(iter_records(loop_trace), 1),
            loop_trace.total_instructions)
        assert event_reprs(idx_one) == event_reprs(idx_single)
        assert index_shape(idx_one) == index_shape(idx_single)

    def test_loop_boundary_at_every_batch_seam(self, loop_trace):
        """Splitting the stream at any position -- including mid-loop
        and exactly on a closing back-edge -- must not change events."""
        records = list(iter_records(loop_trace))
        total = loop_trace.total_instructions
        reference = LoopDetector()
        ref_index = reference.run(loop_trace)
        full = batch_of(records)
        for split in range(len(records) + 1):
            d = LoopDetector()
            idx = d.run_batches(
                (b for b in (slice_batch(full, 0, split),
                             slice_batch(full, split, len(records)))
                 if len(b)), total)
            assert event_reprs(idx) == event_reprs(ref_index)
            assert index_shape(idx) == index_shape(ref_index)

    def test_loop_spanning_v3_chunk_seam(self, loop_trace, tmp_path):
        """A cached v3 trace whose chunks split a loop execution must
        replay to the identical index (chunk boundaries are batch
        boundaries on the warm path)."""
        from repro.trace.io import BatchTraceWriter

        path = str(tmp_path / "seam.cft")
        with open(path, "w+b") as fh:
            writer = BatchTraceWriter(fh, loop_trace.program_name)
            # 7 records per chunk: every chunk seam lands mid-loop.
            for batch in cut(iter_records(loop_trace), 7):
                writer.write_batch(batch)
            writer.close(loop_trace.total_instructions,
                         loop_trace.halted)
        header, batches = open_cf_batches(path)
        streamed = LoopDetector()
        idx_streamed = streamed.run_batches(
            batches, header.total_instructions)
        reference = LoopDetector()
        idx_ref = reference.run(loop_trace)
        assert event_reprs(idx_streamed) == event_reprs(idx_ref)
        assert index_shape(idx_streamed) == index_shape(idx_ref)


# ---------------------------------------------------------------------------
# Derived-results store.
# ---------------------------------------------------------------------------

def _flush_distinct_keys(args):
    """Pool worker: *count* load-put-flush rounds of one store, each
    with a key no other worker writes."""
    from repro.pipeline.derived import DerivedCache

    root, worker, count = args
    for i in range(count):
        store = DerivedCache(root).store("w-s1-m100-v3-abc")
        store.get("loaded")
        store.put("w%d/%d" % (worker, i), i)
        store.flush()


class TestDerivedStore:
    def _store(self, tmp_path):
        from repro.pipeline.derived import DerivedCache
        return DerivedCache(str(tmp_path)).store("w-s1-m100-v3-abc")

    def test_put_get_flush_reload(self, tmp_path):
        store = self._store(tmp_path)
        assert store.get("simulate/4/str/c16") is None
        store.put("simulate/4/str/c16", {"tpc": 3})
        assert store.get("simulate/4/str/c16") == {"tpc": 3}
        store.flush()
        again = self._store(tmp_path)
        assert again.get("simulate/4/str/c16") == {"tpc": 3}

    def test_unflushed_values_do_not_persist(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        assert self._store(tmp_path).get("k") is None

    @staticmethod
    def _database(tmp_path):
        from repro.pipeline.derived import DB_NAME
        return os.path.join(str(tmp_path), "derived", DB_NAME)

    def test_corrupt_file_reads_as_empty(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        store.flush()
        store.cache.close()
        with open(self._database(tmp_path), "wb") as fh:
            fh.write(b"not a sqlite database at all" * 100)
        assert self._store(tmp_path).get("k") is None
        # The corrupt file was replaced: a flush persists again.
        store = self._store(tmp_path)
        store.put("k", 2)
        store.flush()
        assert self._store(tmp_path).get("k") == 2

    def test_schema_version_mismatch_reads_as_empty(self, tmp_path):
        import sqlite3

        store = self._store(tmp_path)
        store.put("k", 1)
        store.flush()
        store.cache.close()
        conn = sqlite3.connect(self._database(tmp_path))
        conn.execute("PRAGMA user_version = -1")
        conn.commit()
        conn.close()
        assert self._store(tmp_path).get("k") is None

    def test_concurrent_flushes_keep_both_keys(self, tmp_path):
        first = self._store(tmp_path)
        second = self._store(tmp_path)
        # Both load the (empty) store before either flushes.
        assert first.get("a") is None and second.get("b") is None
        first.put("a", 1)
        second.put("b", 2)
        first.flush()
        second.flush()
        again = self._store(tmp_path)
        assert again.get("a") == 1 and again.get("b") == 2
        # Only the database lives under derived/: the journal is
        # transient, gone once each flush commits.
        root = os.path.join(str(tmp_path), "derived")
        assert os.listdir(root) == ["results.sqlite"]

    def test_concurrent_processes_lose_no_keys(self, tmp_path):
        import multiprocessing

        workers, rounds = 4, 25         # more workers than cores
        with multiprocessing.get_context("spawn").Pool(workers) as pool:
            pool.map_async(_flush_distinct_keys,
                           [(str(tmp_path), w, rounds)
                            for w in range(workers)]).get(timeout=120)
        store = self._store(tmp_path)
        for worker in range(workers):
            for i in range(rounds):
                assert store.get("w%d/%d" % (worker, i)) == i

    def test_unwritable_directory_disables_persistence(self, tmp_path):
        from repro.pipeline.derived import DerivedCache

        blocker = tmp_path / "cache"
        blocker.write_text("a file where the cache directory should be")
        store = DerivedCache(str(blocker)).store("w-s1-m100-v3-abc")
        store.put("k", 1)
        store.flush()                   # silently not persisted
        assert store.get("k") == 1
        assert blocker.read_text().startswith("a file")

    def test_derived_key_joins_parts(self):
        from repro.pipeline.derived import derived_key
        assert derived_key("simulate", 4, "str") == "simulate/4/str"


# ---------------------------------------------------------------------------
# Result-state round trips.
# ---------------------------------------------------------------------------

class TestStateRoundTrips:
    def test_speculation_result_round_trips(self, loop_trace):
        from repro.core.speculation import simulate
        from repro.core.speculation.metrics import SpeculationResult

        index = LoopDetector().run(loop_trace)
        result = simulate(index, num_tus=4, policy="str", name="w")
        restored = SpeculationResult.from_state(
            json.loads(json.dumps(result.state())))
        assert restored.state() == result.state()
        assert restored.tpc == result.tpc

    def test_speculation_result_rejects_malformed(self):
        from repro.core.speculation.metrics import SpeculationResult

        good = SpeculationResult("w", 4, "str").state()
        with pytest.raises(KeyError):
            SpeculationResult.from_state(
                {k: v for k, v in good.items() if k != "promoted"})
        bad = dict(good)
        bad["promoted"] = "7"
        with pytest.raises(TypeError):
            SpeculationResult.from_state(bad)
        # Negative counters would restore with hit_ratio == 1.0.
        with pytest.raises(ValueError):
            SpeculationResult.from_state(dict(good, promoted=-5,
                                              resolved=-5))

    def test_loop_statistics_rejects_impossible_counters(self,
                                                         loop_trace):
        from repro.core.loopstats import LoopStatistics, \
            compute_loop_statistics

        good = compute_loop_statistics(LoopDetector().run(loop_trace),
                                       "w").state()
        assert LoopStatistics.from_state(good).state() == good
        for field, value in (("executions", -1),
                             ("static_loops", good["executions"] + 1),
                             ("single_iteration_executions",
                              good["executions"] + 1)):
            with pytest.raises(ValueError):
                LoopStatistics.from_state(dict(good, **{field: value}))

    def test_loop_statistics_ignore_a_stored_overflow_drops(self):
        """Stores written before ``overflow_drops`` left the state hold
        it as 0; such a state restores equal to one without it."""
        from repro.core.loopstats import LoopStatistics

        fresh = LoopStatistics("w")
        old = dict(fresh.state(), overflow_drops=0)
        restored = LoopStatistics.from_state(old)
        assert restored.state() == fresh.state()
        assert "overflow_drops" not in restored.state()

    def test_dataspec_stats_round_trips(self):
        from repro.core.dataspec.stats import DataSpecStats

        stats = DataSpecStats("w")
        # Distinct counters, each ratio's numerator below its
        # denominator (from_state rejects ratios above 100%).
        for i, field in enumerate(DataSpecStats.COUNTER_FIELDS):
            setattr(stats, field, 100 - i)
        # ...except the two identities every study keeps.
        stats.evaluated_iterations = stats.mfp_iterations
        stats.lm_addr_total = stats.lm_total
        restored = DataSpecStats.from_state(
            json.loads(json.dumps(stats.state())))
        assert restored.state() == stats.state()
        bad = stats.state()
        bad[DataSpecStats.COUNTER_FIELDS[0]] = None
        with pytest.raises(TypeError):
            DataSpecStats.from_state(bad)
        for field, value in (("lr_correct", 98), ("all_data_count", -1)):
            with pytest.raises(ValueError):
                DataSpecStats.from_state(dict(stats.state(),
                                              **{field: value}))

    def test_dataspec_stats_reject_broken_identities(self):
        """The study evaluates exactly its most-frequent-path
        iterations and scores one address per live-in memory value;
        counters that break either identity are rejected even when
        every ratio is in range."""
        from repro.core.dataspec.stats import DataSpecStats

        good = {"name": "w", "total_iterations": 50,
                "mfp_iterations": 40, "evaluated_iterations": 40,
                "lr_total": 30, "lr_correct": 20, "lm_total": 10,
                "lm_correct": 5, "lm_addr_total": 10,
                "lm_addr_correct": 6, "all_lr_count": 8,
                "all_lm_count": 7, "all_data_count": 3}
        assert DataSpecStats.from_state(good).state() == good
        for field, value in (("evaluated_iterations", 39),
                             ("mfp_iterations", 41),
                             ("lm_addr_total", 11),
                             ("lm_total", 9)):
            with pytest.raises(ValueError):
                DataSpecStats.from_state(dict(good, **{field: value}))


    def test_branch_prediction_report_round_trips(self, loop_trace):
        from repro.core.branchpred import BranchPredictionReport, \
            BranchPredictionStream, GSharePredictor

        stream = BranchPredictionStream([BimodalPredictor(),
                                         GSharePredictor()])
        for batch in loop_trace.batches:
            stream.feed_batch(batch)
        for report in stream.reports("w"):
            restored = BranchPredictionReport.from_state(
                json.loads(json.dumps(report.state())))
            assert restored.state() == report.state()
            assert restored.closing_total > 0
            assert restored.overall_accuracy == report.overall_accuracy
        # Integers no measurement can produce: more correct predictions
        # than branches (an accuracy of 300%), or negative counts.
        for impossible in ({"closing_correct": 9, "closing_total": 3},
                           {"other_correct": 4, "other_total": 3},
                           {"closing_correct": -1, "closing_total": 0},
                           {"other_total": -1}):
            with pytest.raises(ValueError):
                BranchPredictionReport.from_state(
                    dict(report.state(), **impossible))
        bad = report.state()
        bad["other_total"] = 1.5
        with pytest.raises(TypeError):
            BranchPredictionReport.from_state(bad)
        del bad["other_total"]
        with pytest.raises(KeyError):
            BranchPredictionReport.from_state(bad)

    def test_table_sim_counters_round_trip(self, loop_trace):
        from repro.core.tables import POLICY_NESTING_AWARE

        index = LoopDetector().run(loop_trace)
        for policy in ("lru", POLICY_NESTING_AWARE):
            sim = TableHitRatioSimulator(2, 4, policy)
            sim.ensure_replayed(index)
            restored = TableHitRatioSimulator.from_counters(
                2, 4, policy, json.loads(json.dumps(sim.counters())))
            assert restored.counters() == sim.counters()
            assert restored.let_hit_ratio == sim.let_hit_ratio
            assert restored.lit_hit_ratio == sim.lit_hit_ratio
            # Restored counters are final: no walk can add to them.
            restored.ensure_replayed(index)
            assert restored.counters() == sim.counters()
        for bad in ([1, 2, 3], [1, 2, 3, "4"], {"let_hits": 1}, None):
            with pytest.raises(TypeError):
                TableHitRatioSimulator.from_counters(2, 4, "lru", bad)
        # Integers no replay can produce: hits above accesses, negative
        # counts (these would render hit ratios of 500% and -150%).
        for bad in ([5, 1, -3, 2], [3, 2, 0, 0], [0, 0, 2, 1],
                    [-1, 0, 0, 0], [0, -1, 0, 0]):
            with pytest.raises(ValueError):
                TableHitRatioSimulator.from_counters(8, 8, "lru", bad)

    def test_disable_table_result_round_trips(self, loop_trace):
        from repro.core.speculation import SpeculationDisableTable, \
            simulate
        from repro.experiments.extensions import guarded_from_state, \
            guarded_state

        index = LoopDetector().run(loop_trace)
        table = SpeculationDisableTable(capacity=16, min_samples=1,
                                        hit_threshold=1.0)
        result = simulate(index, num_tus=4, policy="str", name="w",
                          disable_table=table)
        state = json.loads(json.dumps(guarded_state((result, len(table)))))
        restored, blocked = guarded_from_state(state)
        assert restored.state() == result.state()
        assert blocked == len(table)
        state["blocked"] = "1"
        with pytest.raises(TypeError):
            guarded_from_state(state)


# ---------------------------------------------------------------------------
# Idempotent table replay.
# ---------------------------------------------------------------------------

class TestEnsureReplayed:
    def test_replays_once_and_matches_event_replay(self, loop_trace):
        index = LoopDetector().run(loop_trace)
        columnar = TableHitRatioSimulator(4, 4)
        assert columnar.ensure_replayed(index) is columnar
        counters = (columnar.let_hits, columnar.let_accesses,
                    columnar.lit_hits, columnar.lit_accesses)
        columnar.ensure_replayed(index)     # second call is free
        assert counters == (columnar.let_hits, columnar.let_accesses,
                            columnar.lit_hits, columnar.lit_accesses)
        reference = EventTableReplay(4, 4).replay(index_events(index))
        assert list(counters) == reference.counters()


# ---------------------------------------------------------------------------
# Zero-copy v3 reads from a path.
# ---------------------------------------------------------------------------

class TestPathReads:
    def test_path_reads_match_records(self, loop_trace, tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        header, batches = open_cf_batches(path)
        records = [rec for batch in batches
                   for rec in iter_records(batch)]
        assert records == list(iter_records(loop_trace))
        assert header.records == len(records)

    def test_loads_accepts_memoryview(self, loop_trace):
        payload = dumps(loop_trace)
        a = loads(payload)
        b = loads(memoryview(payload))
        assert list(iter_records(a)) == list(iter_records(b))
        assert a.total_instructions == b.total_instructions

    def test_truncated_mapped_file_raises(self, loop_trace, tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        data = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(data[:-3])
        header, batches = open_cf_batches(path)
        with pytest.raises(ValueError):
            list(batches)

    def test_trailing_garbage_in_mapped_file_raises(self, loop_trace,
                                                    tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        with open(path, "ab") as fh:
            fh.write(b"x")
        header, batches = open_cf_batches(path)
        with pytest.raises(ValueError, match="trailing"):
            list(batches)


# ---------------------------------------------------------------------------
# Pool worker payloads.
# ---------------------------------------------------------------------------

class TestSharedMemoryPayload:
    def test_shared_payload_round_trips_and_unlinks(self):
        """A trace shipped back from a real pool process equals the
        inline one, and the transport leaves no shared-memory segment."""
        from concurrent.futures import ProcessPoolExecutor
        from repro.pipeline import worker

        def shm_entries():
            return set(os.listdir("/dev/shm")) \
                if os.path.isdir("/dev/shm") else set()

        before = shm_entries()
        with ProcessPoolExecutor(max_workers=1) as pool:
            name, trace = pool.submit(
                worker.trace_workload, "swim", 1, 5_000, None).result()
        assert name == "swim"
        _, ref = worker.trace_workload("swim", 1, 5_000, None)
        assert trace.header == ref.header
        assert all(isinstance(b, RecordBatch) for b in trace.batches)
        assert list(iter_records(trace)) == list(iter_records(ref))
        assert shm_entries() <= before
