"""Tests for the columnar record-batch IR and the binary v3 format.

Covers the RecordBatch container (round trips, zero-copy slicing),
v3 serialization (property round trips, the corruption suite, the
streaming writer), the committed fixture matrix, and
batch-vs-record equivalence for every batch consumer: the CLS/loop
detector, the analysis feed protocol, timing models, branch
prediction, and the data-speculation study.
"""

import io
import os
import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import InstrKind
from repro.cpu.tracer import (
    ChunkedCFTracer,
    ChunkedFullTracer,
    trace_control_flow,
    trace_full,
)
from repro.core.cls import CurrentLoopStack
from repro.core.detector import LoopDetector
from repro.trace import (
    TRACE_FORMAT_VERSION,
    BatchTraceWriter,
    RecordBatch,
    dump_cf_trace,
    load_cf_trace,
    open_cf_batches,
    read_cf_header,
)

from assembler import assemble
from capture import workload_full_trace, workload_trace
from records import (
    CFRecord,
    batch_of,
    control_flow,
    dumps,
    iter_records,
    loads,
    prefix,
    slice_batch,
    trace_of,
)
from reference import cut
from reference.cls import ReferenceCLS, reference_events
from reference.events import from_columns, index_events, index_records

BR = int(InstrKind.BRANCH)
JMP = int(InstrKind.JUMP)
RET = int(InstrKind.RET)
CALL = int(InstrKind.CALL)
HALT = int(InstrKind.HALT)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

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


def random_records(draw_kinds=True):
    """Strategy: lists of structurally valid CF records (monotonic seq,
    non-negative pcs/targets, None targets allowed on any kind)."""
    record = st.tuples(
        st.integers(0, 500),                    # pc
        st.sampled_from([BR, JMP, RET, CALL, HALT])
        if draw_kinds else st.just(BR),         # kind
        st.booleans(),                          # taken
        st.one_of(st.none(), st.integers(0, 500)))   # target
    return st.lists(record, max_size=60).map(
        lambda raw: [CFRecord(seq * 2, pc, kind, taken, target)
                     for seq, (pc, kind, taken, target) in enumerate(raw)])


# ---------------------------------------------------------------------------
# RecordBatch container.
# ---------------------------------------------------------------------------

class TestRecordBatch:
    @settings(max_examples=30)
    @given(random_records())
    def test_from_records_round_trips(self, records):
        batch = batch_of(records)
        assert len(batch) == len(records)
        assert list(iter_records(batch)) == records

    def test_column_length_mismatch_rejected(self):
        good = batch_of(
            [CFRecord(0, 1, BR, True, 0), CFRecord(2, 3, BR, False, 1)])
        with pytest.raises(ValueError, match="columns"):
            RecordBatch(good.seqs, good.pcs, good.kinds, good.takens,
                        good.targets[:1])

    def test_slice_is_zero_copy(self, loop_trace):
        batch = batch_of(list(iter_records(loop_trace)))
        part = slice_batch(batch, 3, 9)
        assert list(iter_records(part)) == list(iter_records(loop_trace))[3:9]
        assert isinstance(part.seqs, memoryview)
        assert part.seqs.obj is batch.seqs       # shares storage

    def test_prefix_splits_on_seq(self, loop_trace):
        batch = batch_of(list(iter_records(loop_trace)))
        limit = list(iter_records(loop_trace))[7].seq
        head = prefix(batch, limit)
        assert list(iter_records(head)) \
            == [r for r in list(iter_records(loop_trace)) if r.seq < limit]
        assert len(prefix(batch, 10 ** 9)) == len(batch)

    def test_tracer_chunks_partition_without_empties(self, loop_trace):
        trace = ChunkedCFTracer(assemble(LOOP_SRC), chunk_size=4).columns()
        assert all(1 <= len(b) <= 4 for b in trace.batches)
        assert list(iter_records(trace)) \
            == list(iter_records(loop_trace))
        assert trace.header == loop_trace.header
        assert trace_of([], 0, False).batches == []
        with pytest.raises(ValueError):
            ChunkedCFTracer(assemble(LOOP_SRC), chunk_size=0)


# ---------------------------------------------------------------------------
# v3 serialization.
# ---------------------------------------------------------------------------

class TestSerializationV3:
    def test_default_format_is_binary_v3(self, loop_trace):
        data = dumps(loop_trace)
        assert isinstance(data, bytes)
        assert data.startswith(b"CFT3")

    @pytest.mark.parametrize("count", [1, 7, 65536])
    def test_chunk_payload_is_zlib_of_the_column_bytes(self, count,
                                                        tmp_path):
        """A chunk's payload is ``zlib.compress`` at level 1 of its
        concatenated little-endian columns (the layout in
        ``repro.trace.io``), for array columns and for the read-only
        views a decoded batch carries alike."""
        import zlib
        from array import array

        batch = RecordBatch(
            array("q", range(0, 3 * count, 3)),
            array("q", ((i * 7919) % 4099 for i in range(count))),
            array("b", (i % 5 for i in range(count))),
            array("b", (i % 2 for i in range(count))),
            array("q", ((i * 31) % 977 - 1 for i in range(count))))
        raw = b"".join(column.tobytes() for column in (
            batch.seqs, batch.pcs, batch.kinds, batch.takens,
            batch.targets))
        payload = zlib.compress(raw, 1)
        chunk = struct.pack("<II", count, len(payload)) + payload

        def written(batch):
            buf = io.BytesIO()
            writer = BatchTraceWriter(buf, "chunk")
            start = buf.tell()
            writer.write_batch(batch)
            data = buf.getvalue()
            writer.close(3 * count, True)
            return data[start:], buf.getvalue()

        data, trace = written(batch)
        assert data == chunk
        path = tmp_path / "chunk.cft"
        path.write_bytes(trace)
        _, batches = open_cf_batches(str(path))
        (decoded,) = list(batches)
        assert written(decoded)[0] == chunk

    @settings(max_examples=30)
    @given(random_records())
    def test_round_trip_random_records(self, records):
        trace = trace_of(records, 2 * len(records) + 5, False, "rand")
        clone = loads(dumps(trace))
        assert list(iter_records(clone)) == records
        assert clone.total_instructions == trace.total_instructions
        assert clone.halted == trace.halted
        assert clone.program_name == trace.program_name

    def test_round_trip_i64_extremes(self):
        records = [CFRecord(0, 2 ** 63 - 1, BR, True, 0),
                   CFRecord(2 ** 62, 3, HALT, False, None)]
        trace = trace_of(records, 2 ** 62 + 1, True, "extremes")
        assert list(iter_records(loads(dumps(trace)))) \
            == records

    def test_empty_trace_round_trips(self):
        trace = trace_of([], 0, False, "empty")
        clone = loads(dumps(trace))
        assert list(iter_records(clone)) == []
        assert clone.total_instructions == 0

    def test_header_read(self, loop_trace):
        data = dumps(loop_trace)
        header = read_cf_header(io.BytesIO(data))
        assert header.version == 3
        assert header.records == len(list(iter_records(loop_trace)))
        assert header.total_instructions == loop_trace.total_instructions
        assert header.program_name == loop_trace.program_name

    def test_file_round_trip_and_open_batches(self, loop_trace,
                                              tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)            # default: v3
        assert list(iter_records(load_cf_trace(path))) \
            == list(iter_records(loop_trace))
        header, batches = open_cf_batches(path)
        assert header.version == 3
        assert [r for b in batches for r in iter_records(b)] \
            == list(iter_records(loop_trace))

    def test_streaming_writer_backpatches_header(self, loop_trace,
                                                 tmp_path):
        path = str(tmp_path / "s.cft")
        with open(path, "wb") as fh:
            writer = BatchTraceWriter(fh, loop_trace.program_name)
            for rec in iter_records(loop_trace):        # one at a time
                writer.write_batch(batch_of([rec]))
            writer.close(loop_trace.total_instructions,
                         loop_trace.halted)
        clone = load_cf_trace(path)
        assert clone.header == loop_trace.header
        assert list(iter_records(clone)) == list(iter_records(loop_trace))

    def test_unclosed_streaming_writer_rejected(self, loop_trace,
                                                tmp_path):
        path = str(tmp_path / "u.cft")
        with open(path, "wb") as fh:
            writer = BatchTraceWriter(fh, "unfinished")
            writer.write_batch(batch_of(
                list(iter_records(loop_trace))))
            # no close(): header still holds the -1 placeholders
        with pytest.raises(ValueError, match="never finalized"):
            load_cf_trace(path)


class TestCorruptV3Files:
    """A v3 file is either bit-exact or rejected."""

    def _data(self, loop_trace):
        return dumps(loop_trace)

    def test_bad_magic_rejected(self, loop_trace):
        data = b"XXT3" + self._data(loop_trace)[4:]
        with pytest.raises(ValueError, match="magic"):
            loads(data)

    def test_truncated_chunk_rejected(self, loop_trace):
        data = self._data(loop_trace)
        with pytest.raises(ValueError,
                           match="truncated|tampered|corrupt"):
            loads(data[:len(data) - 9])

    def test_truncated_header_rejected(self, loop_trace):
        with pytest.raises(ValueError, match="short read"):
            loads(self._data(loop_trace)[:10])

    def test_record_count_mismatch_rejected(self, loop_trace):
        data = bytearray(self._data(loop_trace))
        # Patch the declared record count at its fixed header offset.
        name_len = struct.unpack_from("<H", data, 4)[0]
        offset = 4 + 2 + name_len + 8 + 1
        declared = struct.unpack_from("<q", data, offset)[0]
        assert declared == len(list(iter_records(loop_trace)))
        struct.pack_into("<q", data, offset, declared + 1)
        with pytest.raises(ValueError, match="declares"):
            loads(bytes(data))

    def test_trailing_garbage_rejected(self, loop_trace):
        with pytest.raises(ValueError, match="trailing garbage"):
            loads(self._data(loop_trace) + b"\x00")

    def test_corrupt_payload_rejected(self, loop_trace):
        data = bytearray(self._data(loop_trace))
        data[-20] ^= 0xFF                # inside the zlib payload
        with pytest.raises(ValueError,
                           match="corrupt|declares|truncated"):
            loads(bytes(data))

    def test_decompression_bomb_rejected_without_inflating(self):
        """A tampered chunk that inflates far past its declared record
        count must be rejected by the bounded decoder, not decompressed
        into memory."""
        import zlib

        trace = trace_of([CFRecord(0, 5, HALT, False, None)], 1,
                                     True,
                        "bomb")
        data = bytearray(dumps(trace))
        name_len = struct.unpack_from("<H", data, 4)[0]
        chunk_off = 4 + 2 + name_len + 17
        bomb = zlib.compress(b"\x00" * 1_000_000)
        assert len(bomb) < 26 + 1024     # passes the size pre-check
        patched = (bytes(data[:chunk_off]) + struct.pack("<II", 1,
                                                         len(bomb))
                   + bomb + struct.pack("<I", 0xFFFFFFFF))
        with pytest.raises(ValueError, match="declares"):
            loads(patched)

    def test_oversized_payload_length_rejected(self, loop_trace):
        data = bytearray(dumps(loop_trace))
        name_len = struct.unpack_from("<H", data, 4)[0]
        chunk_off = 4 + 2 + name_len + 17
        # Keep the record count, declare an absurd payload length.
        struct.pack_into("<I", data, chunk_off + 4, 0xF0000000)
        with pytest.raises(ValueError, match="payload length"):
            loads(bytes(data))

    def test_streaming_reader_raises_mid_stream(self, loop_trace,
                                                tmp_path):
        path = str(tmp_path / "t.cft")
        dump_cf_trace(loop_trace, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:len(data) - 6])
        _header, batches = open_cf_batches(path)
        with pytest.raises(ValueError):
            list(batches)


# ---------------------------------------------------------------------------
# The committed read matrix: one fixture per readable format version.
# ---------------------------------------------------------------------------

#: Format versions the reader supports, each with a committed fixture.
READABLE_VERSIONS = [TRACE_FORMAT_VERSION]


class TestFixtureMatrix:
    EXPECTED_RECORDS = 25
    EXPECTED_TOTAL = 78

    @staticmethod
    def _path(version):
        return os.path.join(FIXTURES, "loop_v%d.cft" % version)

    @pytest.mark.parametrize("version", READABLE_VERSIONS)
    def test_fixture_loads(self, version):
        trace = load_cf_trace(self._path(version))
        assert len(list(iter_records(trace))) == self.EXPECTED_RECORDS
        assert trace.total_instructions == self.EXPECTED_TOTAL
        assert trace.halted
        assert trace.program_name == "fixture-loop"

    @pytest.mark.parametrize("version", READABLE_VERSIONS)
    def test_all_versions_decode_identically(self, version, loop_trace):
        """Every fixture decodes to the records a fresh trace of the
        fixture program produces."""
        assert list(iter_records(load_cf_trace(self._path(version)))) \
            == list(iter_records(loop_trace))

    @pytest.mark.parametrize("version", READABLE_VERSIONS)
    def test_headers_agree(self, version):
        header = read_cf_header(self._path(version))
        assert header.version == version
        assert header.total_instructions == self.EXPECTED_TOTAL

    @pytest.mark.parametrize("version", READABLE_VERSIONS)
    def test_streaming_matches_fixture(self, version):
        header, batches = open_cf_batches(self._path(version))
        assert [r for b in batches for r in iter_records(b)] \
            == list(iter_records(load_cf_trace(self._path(version))))

    def test_nothing_writes_v1_by_default(self, loop_trace, tmp_path):
        """Only v3 is written: the module writer and the cache both
        produce it."""
        from repro.pipeline.cache import TraceCache, program_fingerprint

        path = str(tmp_path / "default.cft")
        dump_cf_trace(loop_trace, path)
        assert open(path, "rb").read(4) == b"CFT3"
        assert isinstance(dumps(loop_trace), bytes)

        cache = TraceCache(str(tmp_path / "cache"))
        program = assemble(LOOP_SRC)
        fp = program_fingerprint(program)
        stored = cache.store(ChunkedCFTracer(program).columns(), "fixture",
                             1, 1000, fp)
        assert open(stored, "rb").read(4) == b"CFT3"
        assert list(iter_records(load_cf_trace(stored))) \
            == list(iter_records(loop_trace))


# ---------------------------------------------------------------------------
# Batch-vs-record equivalence: detector and CLS.
# ---------------------------------------------------------------------------

def event_reprs(events):
    return [repr(e) for e in events]


def index_shape(index):
    return sorted((r.exec_id, r.loop, r.start_seq, tuple(r.iter_seqs),
                   r.end_seq, r.iterations, r.reason, r.depth)
                  for r in index_records(index).values())


class TestDetectorBatchEquivalence:
    @settings(max_examples=40)
    @given(random_records())
    def test_cls_process_batch_matches_process(self, records):
        # The per-record reference CLS steps the same records.
        ref = ReferenceCLS(4)
        expected = []
        for rec in records:
            expected.extend(ref.step(rec.seq, rec.pc, rec.kind,
                                     rec.taken, rec.target))
        stack = CurrentLoopStack(capacity=4)
        got = from_columns(stack.columns, stack.process_batch(
            batch_of(records)))
        assert event_reprs(got) == event_reprs(expected)
        assert [entry.t for entry in stack.entries] \
            == [entry.t for entry in ref.stack]
        assert stack.overflow_count == ref.overflow_count
        assert stack.next_exec_id == ref.next_exec_id
        flushed = from_columns(stack.columns, stack.flush(999))
        assert event_reprs(flushed) == event_reprs(ref.flush(999))

    @settings(max_examples=15)
    @given(random_records(), st.integers(1, 7))
    def test_detector_feed_batch_matches_feed(self, records, size):
        total = 2 * len(records) + 1
        expected, _ = reference_events(records, 4, total)
        one = LoopDetector(cls_capacity=4)
        idx1 = one.run_batches(cut(records, 1), total)
        sized = LoopDetector(cls_capacity=4)
        idx2 = sized.run_batches(cut(records, size), total)
        assert event_reprs(index_events(idx1)) == event_reprs(expected)
        assert event_reprs(index_events(idx2)) == event_reprs(expected)
        assert index_shape(idx1) == index_shape(idx2)

    def test_real_workload_equivalence(self):
        from repro.workloads import get
        trace = workload_trace(get("go"), 1, max_instructions=30_000)
        d1 = LoopDetector()
        idx1 = d1.run(trace)
        d2 = LoopDetector()
        idx2 = d2.run_batches(cut(iter_records(trace), 4096),
                              trace.total_instructions)
        assert event_reprs(index_events(idx1)) \
            == event_reprs(index_events(idx2))
        assert index_shape(idx1) == index_shape(idx2)


# ---------------------------------------------------------------------------
# Batch-vs-record equivalence: the record consumers.
# ---------------------------------------------------------------------------

class TestAnalysisFeedBatch:
    def test_wants_records_without_feed_batch_raises(self, loop_trace):
        # A timing model with a per-record hook but no feed_batch
        # errors instead of silently seeing no records.
        from repro.analysis import SpeculationPass, analyze_trace
        from repro.timing import TimingModel

        class PerRecordModel(TimingModel):
            name = "per-record"
            wants_records = True

        with pytest.raises(NotImplementedError, match="PerRecordModel"):
            analyze_trace([SpeculationPass(4, "str")], loop_trace,
                          timing=PerRecordModel())

    def test_branch_prediction_stream_equivalence(self):
        """The fused bimodal+gshare loop against two single-predictor
        streams (the generic loop) over the same batches."""
        from repro.core.branchpred import (
            BimodalPredictor,
            BranchPredictionStream,
            GSharePredictor,
        )
        from repro.workloads import get

        for name in ("swim", "go", "gcc"):
            trace = workload_trace(get(name), 1)
            fused = BranchPredictionStream(
                [BimodalPredictor(), GSharePredictor()])
            bimodal = BranchPredictionStream([BimodalPredictor()])
            gshare = BranchPredictionStream([GSharePredictor()])
            assert fused._fused_pair and not bimodal._fused_pair
            for batch in cut(iter_records(trace), 1000):
                for stream in (fused, bimodal, gshare):
                    stream.feed_batch(batch)
            singles = bimodal.reports(name) + gshare.reports(name)
            for a, b in zip(fused.reports(name), singles):
                assert a.state() == b.state()
                assert a.closing_total > 0 and a.other_total > 0

    def test_classcost_timing_equivalence(self, loop_trace):
        from repro.timing import make_timing

        batched = make_timing("classcost:branch=3,other=2")
        for batch in cut(iter_records(loop_trace), 5):
            batched.feed_batch(batch)
        # Expected: the class cost of each record's instruction, and 2
        # for each straight-line one, summed from position 0.
        branch = int(InstrKind.BRANCH)
        kinds = {rec.seq: rec.kind for rec in list(iter_records(loop_trace))}
        total = loop_trace.total_instructions
        prefix = [0]
        for seq in range(total):
            kind = kinds.get(seq)
            prefix.append(prefix[-1] + (2 if kind is None
                                        else 3 if kind == branch else 1))
        for pos in range(0, total, 7):
            assert batched.cycles(pos, total - pos) \
                == prefix[total] - prefix[pos]

    def test_dataspec_batches_match_full_trace(self):
        from repro.core.dataspec import DataSpeculationAnalyzer
        from repro.workloads import get

        from reference.dataspec import reference_stats

        workload = get("compress")
        limit = 30_000
        analyzer = DataSpeculationAnalyzer()
        ref = reference_stats(
            workload_full_trace(workload, 1, max_instructions=limit), "c")
        tracer = ChunkedFullTracer(workload.program(1), limit,
                                   chunk_size=777)
        got = analyzer.analyze_batches(tracer.batches(), "c")
        for field in ("total_iterations", "mfp_iterations",
                      "evaluated_iterations", "lr_total", "lr_correct",
                      "lm_total", "lm_correct", "lm_addr_total",
                      "lm_addr_correct", "all_lr_count", "all_lm_count",
                      "all_data_count"):
            assert getattr(ref, field) == getattr(got, field), field

    def test_chunked_full_tracer_matches_trace_full(self):
        """The study rows are ``trace_full``'s records grouped into
        blocks, and the control columns are its control transfers."""
        from repro.trace.batch import StudyBatch
        from repro.workloads import get

        program = get("li").program(1)
        limit = 20_000
        full = trace_full(program, max_instructions=limit)
        tracer = ChunkedFullTracer(program, limit, chunk_size=999)
        batches = list(tracer.batches())
        expected = StudyBatch.from_records(full.records)
        assert [row for batch in batches for row in batch.rows] \
            == expected.rows
        assert [rec for batch in batches
                for rec in iter_records(batch.control)] \
            == list(iter_records(control_flow(full)))
        assert sum(map(len, batches)) == full.total_instructions
        assert tracer.total_instructions == full.total_instructions
        assert tracer.halted == full.halted

    @pytest.mark.parametrize("chunk_size",
                             [1, 7, ChunkedFullTracer.DEFAULT_CHUNK])
    @pytest.mark.parametrize("name", ["li", "go"])
    def test_chunked_full_tracer_effect_columns(self, name, chunk_size):
        """Every block row holds exactly the effects of its
        ``FullRecord`` instructions that the study reads: the first
        access to each register, a read first, with its value; every
        register touched; the loads and stores in order; the
        terminator's token.  Register 0 never appears."""
        from repro.workloads import get
        program = get(name).program(1)
        limit = 5_000
        records = trace_full(program, max_instructions=limit).records
        tracer = ChunkedFullTracer(program, limit, chunk_size=chunk_size)
        seq = 0
        for batch in tracer.batches():
            assert batch.start_seq == seq
            assert len(batch) >= min(chunk_size, limit - seq)
            for end, (exposed, touched, ops), data, token in batch.rows:
                block = records[seq:end + 1]
                assert all(rec.kind == 0 for rec in block[:-1])
                first = {}
                for rec in block:
                    for reg, value in rec.reg_reads:
                        first.setdefault(reg, ("read", value))
                    for reg, _ in rec.reg_writes:
                        first.setdefault(reg, ("write", None))
                first.pop(0, None)
                assert list(touched) == list(first)
                assert list(zip(exposed, data)) == [
                    (reg, value) for reg, (how, value) in first.items()
                    if how == "read"]
                memory = []
                for rec in block:
                    memory += [(rec.pc, addr, value)
                               for addr, value in rec.mem_reads]
                    memory += [(-1, addr) for addr, _ in rec.mem_writes]
                rest = iter(data[len(exposed):])
                assert [(pc, next(rest), next(rest)) if pc >= 0
                        else (pc, next(rest)) for pc in ops] == memory
                last = block[-1]
                assert token == (None if last.kind == 0
                                 else last.pc * 2 + last.taken)
                seq = end + 1
            assert seq == batch.start_seq + len(batch)
        assert seq == tracer.total_instructions


# ---------------------------------------------------------------------------
# Tracer batch emission.
# ---------------------------------------------------------------------------

class TestTracerBatches:
    def test_batches_match_trace_control_flow(self, loop_trace):
        tracer = ChunkedCFTracer(assemble(LOOP_SRC), chunk_size=4)
        records = [r for b in tracer.batches() for r in iter_records(b)]
        assert records == list(iter_records(loop_trace))
        assert tracer.total_instructions == loop_trace.total_instructions
        assert tracer.halted == loop_trace.halted

    def test_results_not_ready_before_exhaustion(self):
        tracer = ChunkedCFTracer(assemble(LOOP_SRC))
        with pytest.raises(RuntimeError):
            tracer.total_instructions
        full = ChunkedFullTracer(assemble(LOOP_SRC))
        with pytest.raises(RuntimeError):
            full.halted


# ---------------------------------------------------------------------------
# CFRecord.is_backward (regression: the old `taken is not None` guard
# was dead -- `taken` is always a bool -- and direction must not depend
# on it).
# ---------------------------------------------------------------------------

class TestIsBackwardRegression:
    def test_taken_direction(self):
        assert CFRecord(0, 10, BR, True, 3).is_backward
        assert CFRecord(0, 10, BR, True, 10).is_backward     # self-loop
        assert not CFRecord(0, 10, BR, True, 30).is_backward

    def test_not_taken_backward_branch_is_still_backward(self):
        assert CFRecord(0, 10, BR, False, 3).is_backward
        assert not CFRecord(0, 10, BR, False, 11).is_backward

    def test_no_target_is_never_backward(self):
        assert not CFRecord(0, 10, HALT, False, None).is_backward

    def test_agrees_with_stream_backward_records(self, loop_trace):
        # The batch stream's backward-branch mask selects exactly the
        # conditional branches whose is_backward holds.
        from itertools import compress
        from repro.trace.kernels import backward_branch_mask
        streamed = []
        for batch in cut(iter_records(loop_trace), 5):
            streamed.extend(compress(iter_records(batch),
                                     backward_branch_mask(batch)))
        backward = [rec for rec in list(iter_records(loop_trace))
                    if rec.kind == BR and rec.is_backward]
        assert backward == streamed
        assert backward        # the loop fixture has closing branches


# ---------------------------------------------------------------------------
# tools/trace_cache.py.
# ---------------------------------------------------------------------------

class TestTraceCacheTool:
    def _tool(self):
        import importlib.util
        path = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "tools", "trace_cache.py")
        spec = importlib.util.spec_from_file_location("trace_cache_tool",
                                                      path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _populate(self, root, loop_trace):
        os.makedirs(root, exist_ok=True)
        dump_cf_trace(loop_trace, os.path.join(root, "a-v3-x.cft"))
        # A retired text-format entry: no v3 header, so corrupt.
        with open(os.path.join(root, "b-v2-x.cft"), "w") as fh:
            fh.write("#cftrace v2 name=x total=1 halted=1 records=0\n")
        with open(os.path.join(root, "c-v3-x.cft"), "wb") as fh:
            fh.write(b"CFT3 garbage")

    def test_ls_reports_format_and_counts(self, tmp_path, loop_trace,
                                          capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        self._populate(root, loop_trace)
        assert tool.main(["ls", "--cache-dir", root]) == 0
        out = capsys.readouterr().out
        assert "a-v3-x.cft" in out and "v3" in out
        rows = {line.split()[0]: line.split()[-1]
                for line in out.splitlines() if ".cft" in line}
        assert rows == {"a-v3-x.cft": "ok", "b-v2-x.cft": "corrupt",
                        "c-v3-x.cft": "corrupt"}
        assert "3 entries" in out

    def test_prune_drops_stale_and_corrupt_then_bounds(self, tmp_path,
                                                       loop_trace,
                                                       capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        self._populate(root, loop_trace)
        assert tool.main(["prune", "--cache-dir", root]) == 0
        left = sorted(os.listdir(root))
        assert left == ["a-v3-x.cft"]
        assert tool.main(["prune", "--cache-dir", root,
                          "--max-bytes", "0"]) == 0
        assert os.listdir(root) == []

    def test_clear_and_dry_run(self, tmp_path, loop_trace, capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        self._populate(root, loop_trace)
        assert tool.main(["clear", "--cache-dir", root,
                          "--dry-run"]) == 0
        assert len(os.listdir(root)) == 3      # nothing deleted
        assert tool.main(["clear", "--cache-dir", root]) == 0
        assert os.listdir(root) == []

    def test_removed_entries_take_their_derived_results(self, tmp_path,
                                                        capsys):
        """A deleted trace must not leave stored results behind: the
        next run would read them instead of recomputing."""
        import sqlite3

        from repro.experiments.runner import main as runner_main
        from repro.pipeline.derived import DB_NAME

        tool = self._tool()
        root = str(tmp_path / "cache")
        derived = os.path.join(root, "derived")

        def replays():
            assert runner_main(["table1", "--workloads", "swim",
                                "--max-instructions", "20000",
                                "--cache-dir", root]) == 0
            out = capsys.readouterr().out
            return re.search(r"(\d+) replay\(s\)", out).group(1)

        def rows(trace_key):
            conn = sqlite3.connect(os.path.join(derived, DB_NAME))
            try:
                return conn.execute(
                    "SELECT COUNT(*) FROM derived WHERE trace_key = ?",
                    (trace_key,)).fetchone()[0]
            finally:
                conn.close()

        assert replays() == "1"
        (entry,) = [name[:-len(".cft")] for name in os.listdir(root)
                    if name.endswith(".cft")]
        assert rows(entry) > 0
        assert tool.main(["prune", "--cache-dir", root]) == 0
        assert replays() == "0"             # nothing pruned: a lookup
        assert tool.main(["prune", "--cache-dir", root,
                          "--max-bytes", "0"]) == 0
        assert rows(entry) == 0
        assert replays() == "1"
        assert tool.main(["clear", "--cache-dir", root,
                          "--dry-run"]) == 0
        assert "would remove the derived-results store" \
            in capsys.readouterr().out
        assert os.listdir(derived)
        assert tool.main(["clear", "--cache-dir", root]) == 0
        assert not os.path.exists(derived)
        assert replays() == "1"

    def _populate_indexes(self, root, loop_trace):
        """Trace ``a`` with two current index entries (CLS 16 and 2),
        a stale one (another detector digest) and a corrupt one (CLS
        4); plus an index of trace ``gone``, which has no entry."""
        from repro.pipeline.cache import (
            INDEX_FORMAT_VERSION,
            index_digest,
            write_index,
        )

        os.makedirs(root, exist_ok=True)
        dump_cf_trace(loop_trace, os.path.join(root, "a-v3-x.cft"))

        def index_name(trace_key, capacity, digest=None):
            return "%s.c%d-i%d-%s.lix" % (trace_key, capacity,
                                          INDEX_FORMAT_VERSION,
                                          digest or index_digest())

        for trace_key, capacity, digest in (("a-v3-x", 16, None),
                                            ("a-v3-x", 2, None),
                                            ("a-v3-x", 16, "0" * 12),
                                            ("gone-v3-x", 16, None)):
            index = LoopDetector(cls_capacity=capacity).run(loop_trace)
            with open(os.path.join(root, index_name(
                    trace_key, capacity, digest)), "wb") as fh:
                write_index(index, fh)
        with open(os.path.join(root, index_name("a-v3-x", 4)),
                  "wb") as fh:
            fh.write(b"LIDX garbage")
        return {"ok": [index_name("a-v3-x", 16), index_name("a-v3-x", 2)],
                "stale": [index_name("a-v3-x", 16, "0" * 12)],
                "corrupt": [index_name("a-v3-x", 4)],
                "orphan": [index_name("gone-v3-x", 16)]}

    def test_ls_lists_each_index_beside_its_trace(self, tmp_path,
                                                  loop_trace, capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        names = self._populate_indexes(root, loop_trace)
        assert tool.main(["ls", "--cache-dir", root]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split() for line in lines
                if ".cft" in line or ".lix" in line]
        # The trace, then its indexes by capacity, then the orphan.
        assert [row[0] for row in rows] == [
            "a-v3-x.cft", "+", "+", "+", "+", names["orphan"][0]]
        by_suffix = {row[1]: row[-1] for row in rows if row[0] == "+"}
        for status in ("ok", "stale", "corrupt"):
            for name in names[status]:
                assert by_suffix[name[len("a-v3-x"):]] == status
        assert rows[-1][-1] == "orphan"
        assert "1 entry" in lines[-1] and "5 loop index entries" in lines[-1]

    @pytest.mark.parametrize("dry_run", [True, False],
                             ids=["dry-run", "prune"])
    def test_prune_drops_dead_indexes(self, tmp_path, loop_trace, capsys,
                                      dry_run):
        """An index that is corrupt, stale or whose trace is gone is
        pruned; ``--dry-run`` reports the same and deletes nothing."""
        tool = self._tool()
        root = str(tmp_path / "cache")
        names = self._populate_indexes(root, loop_trace)
        before = sorted(os.listdir(root))
        argv = ["prune", "--cache-dir", root]
        assert tool.main(argv + ["--dry-run"] if dry_run else argv) == 0
        out = capsys.readouterr().out
        dead = names["stale"] + names["corrupt"] + names["orphan"]
        for name in dead:
            assert name in out
        for name in names["ok"]:
            assert name not in out
        if dry_run:
            assert sorted(os.listdir(root)) == before
            assert "would prune 3 entries" in out
        else:
            assert sorted(os.listdir(root)) \
                == sorted(["a-v3-x.cft"] + names["ok"])

    def test_pruned_trace_takes_its_indexes(self, tmp_path, loop_trace,
                                            capsys):
        tool = self._tool()
        root = str(tmp_path / "cache")
        names = self._populate_indexes(root, loop_trace)
        trace_bytes = os.path.getsize(os.path.join(root, "a-v3-x.cft"))
        # The budget counts a trace with its indexes: the trace alone
        # fits, so it goes.
        assert tool.main(["prune", "--cache-dir", root, "--max-bytes",
                          str(trace_bytes)]) == 0
        out = capsys.readouterr().out
        for name in names["ok"]:
            assert "removing %s (trace removed" % name in out
        assert os.listdir(root) == []

    @pytest.mark.parametrize("dry_run", [True, False],
                             ids=["dry-run", "clear"])
    def test_clear_removes_traces_and_indexes(self, tmp_path, loop_trace,
                                              capsys, dry_run):
        tool = self._tool()
        root = str(tmp_path / "cache")
        names = self._populate_indexes(root, loop_trace)
        before = sorted(os.listdir(root))
        argv = ["clear", "--cache-dir", root]
        assert tool.main(argv + ["--dry-run"] if dry_run else argv) == 0
        out = capsys.readouterr().out
        for status in names:
            for name in names[status]:
                assert name in out
        assert sorted(os.listdir(root)) == (before if dry_run else [])

    def test_max_bytes_rejected_outside_prune(self, tmp_path):
        tool = self._tool()
        with pytest.raises(SystemExit):
            tool.main(["ls", "--cache-dir", str(tmp_path),
                       "--max-bytes", "5"])
