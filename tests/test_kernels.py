"""Kernel-layer tests.

Batch fast-path boundary cases (empty/single-record batches, loop
boundaries mid-batch, loops spanning chunk seams), the derived-results
store, result-state round trips, idempotent table replay, the mmap'd
zero-copy v3 reader, and shared-memory trace payloads from pool
workers.
"""

import json
import os

import pytest

from repro.isa import assemble
from repro.cpu import trace_control_flow
from repro.core.branchpred import BimodalPredictor, \
    BranchPredictionStream, GSharePredictor
from repro.core.cls import CurrentLoopStack
from repro.core.detector import LoopDetector
from repro.core.tables import TableHitRatioSimulator
from repro.trace import CFTrace, RecordBatch, dump_cf_trace, \
    dumps_cf_trace, iter_batches, kernels, loads_cf_trace, open_cf_batches
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


def event_reprs(events):
    return [repr(e) for e in events]


def index_shape(index):
    return sorted((r.exec_id, r.loop, r.start_seq, tuple(r.iter_seqs),
                   r.end_seq, r.iterations, r.reason, r.depth)
                  for r in index.executions.values())


# ---------------------------------------------------------------------------
# Batch fast-path boundary cases.
# ---------------------------------------------------------------------------

class TestBatchBoundaries:
    def test_empty_batch_is_inert(self):
        empty = RecordBatch.empty()
        detector = LoopDetector()
        assert detector.feed_batch(empty) == []
        cls = CurrentLoopStack()
        assert cls.process_batch(empty) == []
        assert cls.current_loops() == []
        stream = BranchPredictionStream(
            [BimodalPredictor(), GSharePredictor()])
        stream.feed_batch(empty)
        assert all(r.closing_total == 0 and r.other_total == 0
                   for r in stream.reports("w"))
        assert kernels.backward_branch_mask(empty) == b""
        assert kernels.taken_mask(empty) == b""

    def test_single_record_batches_match_one_batch(self, loop_trace):
        one = LoopDetector()
        idx_one = one.run_batches(iter_batches(loop_trace.records),
                                  loop_trace.total_instructions)
        single = LoopDetector()
        idx_single = single.run_batches(
            iter_batches(loop_trace.records, 1),
            loop_trace.total_instructions)
        assert event_reprs(one.events) == event_reprs(single.events)
        assert index_shape(idx_one) == index_shape(idx_single)

    def test_loop_boundary_at_every_batch_seam(self, loop_trace):
        """Splitting the stream at any position -- including mid-loop
        and exactly on a closing back-edge -- must not change events."""
        records = loop_trace.records
        total = loop_trace.total_instructions
        reference = LoopDetector()
        ref_index = reference.run(records, total)
        full = RecordBatch.from_records(records)
        for split in range(len(records) + 1):
            d = LoopDetector()
            idx = d.run_batches(
                (b for b in (full.slice(0, split),
                             full.slice(split, len(records)))
                 if len(b)), total)
            assert event_reprs(d.events) == event_reprs(reference.events)
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
            for batch in iter_batches(loop_trace.records, 7):
                writer.write_batch(batch)
            writer.close(loop_trace.total_instructions,
                         loop_trace.halted)
        header, batches = open_cf_batches(path)
        streamed = LoopDetector()
        idx_streamed = streamed.run_batches(
            batches, header.total_instructions)
        reference = LoopDetector()
        idx_ref = reference.run(loop_trace)
        assert event_reprs(streamed.events) \
            == event_reprs(reference.events)
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

    def test_corrupt_file_reads_as_empty(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        store.flush()
        (path,) = [os.path.join(str(tmp_path), "derived", name)
                   for name in os.listdir(
                       os.path.join(str(tmp_path), "derived"))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json")
        assert self._store(tmp_path).get("k") is None

    def test_schema_version_mismatch_reads_as_empty(self, tmp_path):
        store = self._store(tmp_path)
        store.put("k", 1)
        store.flush()
        root = os.path.join(str(tmp_path), "derived")
        (path,) = [os.path.join(root, n) for n in os.listdir(root)]
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["version"] = -1
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        assert self._store(tmp_path).get("k") is None

    def test_concurrent_flushes_keep_both_keys(self, tmp_path):
        first = self._store(tmp_path)
        second = self._store(tmp_path)
        # Both load the (empty) file before either flushes.
        assert first.get("a") is None and second.get("b") is None
        first.put("a", 1)
        second.put("b", 2)
        first.flush()
        second.flush()
        again = self._store(tmp_path)
        assert again.get("a") == 1 and again.get("b") == 2
        # Only the entry file itself lives under derived/.
        root = os.path.join(str(tmp_path), "derived")
        assert os.listdir(root) == ["w-s1-m100-v3-abc.json"]

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
        assert restored.as_dict() == result.as_dict()
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

    def test_dataspec_stats_round_trips(self):
        from repro.core.dataspec.stats import DataSpecStats

        stats = DataSpecStats("w")
        for i, field in enumerate(DataSpecStats.COUNTER_FIELDS):
            setattr(stats, field, i + 1)
        restored = DataSpecStats.from_state(
            json.loads(json.dumps(stats.state())))
        assert restored.state() == stats.state()
        bad = stats.state()
        bad[DataSpecStats.COUNTER_FIELDS[0]] = None
        with pytest.raises(TypeError):
            DataSpecStats.from_state(bad)


    def test_branch_prediction_report_round_trips(self, loop_trace):
        from repro.core.branchpred import BranchPredictionReport, \
            BranchPredictionStream, GSharePredictor

        stream = BranchPredictionStream([BimodalPredictor(),
                                         GSharePredictor()])
        for batch in iter_batches(loop_trace.records):
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
        assert restored.as_dict() == result.as_dict()
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
        reference = EventTableReplay(4, 4).replay(index.events)
        assert list(counters) == reference.counters()


# ---------------------------------------------------------------------------
# mmap'd zero-copy v3 reads.
# ---------------------------------------------------------------------------

class TestMappedReads:
    def test_path_reads_match_records(self, loop_trace, tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        header, batches = open_cf_batches(path)
        records = [rec for batch in batches
                   for rec in batch.iter_records()]
        assert records == loop_trace.records
        assert header.records == len(records)

    def test_loads_accepts_memoryview(self, loop_trace):
        payload = dumps_cf_trace(loop_trace)
        a = loads_cf_trace(payload)
        b = loads_cf_trace(memoryview(payload))
        assert a.records == b.records
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
# Shared-memory pool payloads.
# ---------------------------------------------------------------------------

class TestSharedMemoryPayload:
    def test_shared_payload_round_trips_and_unlinks(self):
        from repro.pipeline import worker

        name, payload = worker.trace_workload("swim", 1, 5_000, None,
                                              pooled=True)
        assert name == "swim"
        if not isinstance(payload, worker.SharedTracePayload):
            pytest.skip("shared memory unavailable on this platform")
        header, batches = worker.load_trace_payload(payload)
        _, (ref_header, ref_batches) = worker.trace_workload(
            "swim", 1, 5_000, None)
        assert header == ref_header

        def records(columns):
            return [r for b in columns for r in b.iter_records()]

        assert records(batches) == records(ref_batches)
        # The plain-bytes fallback decodes to the same columns.
        data = dumps_cf_trace(CFTrace.from_batches(ref_header, ref_batches))
        assert records(worker.load_trace_payload(data)[1]) \
            == records(ref_batches)
        # The parent unlinked the segment after reading it.
        from multiprocessing import shared_memory
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=payload.segment)

