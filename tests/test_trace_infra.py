"""Tests for trace containers, serialization and utilities."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import InstrKind, assemble
from repro.cpu import trace_control_flow
from repro.trace import (
    CFRecord,
    CFTrace,
    clip,
    dump_cf_trace,
    dumps_cf_trace,
    load_cf_trace,
    loads_cf_trace,
)

BR = int(InstrKind.BRANCH)
JMP = int(InstrKind.JUMP)

LOOP_SRC = """
main:
    li t0, 0
loop:
    addi t0, t0, 1
    li t1, 6
    blt t0, t1, loop
    halt
"""


@pytest.fixture()
def loop_trace():
    return trace_control_flow(assemble(LOOP_SRC))


class TestCFRecord:
    def test_next_pc_taken_and_not(self):
        taken = CFRecord(0, 10, BR, True, 3)
        not_taken = CFRecord(0, 10, BR, False, 3)
        assert taken.next_pc == 3
        assert not_taken.next_pc == 11
        assert not_taken.fallthrough == 11

    def test_is_backward(self):
        assert CFRecord(0, 10, BR, True, 3).is_backward
        assert CFRecord(0, 10, BR, True, 10).is_backward
        assert not CFRecord(0, 10, BR, True, 30).is_backward

    def test_describe(self):
        text = CFRecord(5, 10, BR, True, 3).describe()
        assert "pc=10" in text and "taken" in text


class TestValidation:
    def test_valid_trace_passes(self, loop_trace):
        assert loop_trace.validate()

    def test_non_monotonic_seq_rejected(self):
        records = [CFRecord(5, 10, BR, True, 10),
                   CFRecord(5, 10, BR, True, 10)]
        with pytest.raises(ValueError):
            CFTrace.from_records(records, 10, True).validate()

    def test_straight_line_gap_mismatch_rejected(self):
        records = [CFRecord(0, 10, BR, False, 5),
                   CFRecord(3, 99, BR, False, 5)]   # gap says pc 13
        with pytest.raises(ValueError):
            CFTrace.from_records(records, 10, True).validate()

    def test_record_beyond_length_rejected(self):
        records = [CFRecord(12, 10, BR, True, 10)]
        with pytest.raises(ValueError):
            CFTrace.from_records(records, 10, True).validate()


class TestClipAndRuns:
    def test_clip_shortens(self, loop_trace):
        half = clip(loop_trace, loop_trace.total_instructions // 2)
        assert half.total_instructions \
            == loop_trace.total_instructions // 2
        assert not half.halted
        assert all(r.seq < half.total_instructions
                   for r in half.iter_records())

    def test_clip_noop_when_longer(self, loop_trace):
        same = clip(loop_trace, loop_trace.total_instructions * 2)
        assert same is loop_trace


class TestSerialization:
    def test_string_round_trip(self, loop_trace):
        text = dumps_cf_trace(loop_trace)
        clone = loads_cf_trace(text)
        assert list(clone.iter_records()) \
            == list(loop_trace.iter_records())
        assert clone.total_instructions == loop_trace.total_instructions
        assert clone.halted == loop_trace.halted
        assert clone.program_name == loop_trace.program_name

    def test_file_round_trip(self, loop_trace, tmp_path):
        path = tmp_path / "trace.cft"
        dump_cf_trace(loop_trace, str(path))
        clone = load_cf_trace(str(path))
        assert list(clone.iter_records()) \
            == list(loop_trace.iter_records())

    def test_file_object_round_trip(self, loop_trace):
        buf = io.BytesIO()               # the default format is binary
        dump_cf_trace(loop_trace, buf)
        buf.seek(0)
        clone = load_cf_trace(buf)
        assert list(clone.iter_records()) \
            == list(loop_trace.iter_records())

    def test_text_file_object_rejected_for_v3(self, loop_trace):
        with pytest.raises(TypeError, match="binary"):
            dump_cf_trace(loop_trace, io.StringIO())

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            loads_cf_trace(b"#wrong v9\n")

    def test_none_target_round_trips(self):
        trace = CFTrace.from_records([CFRecord(0, 5, int(InstrKind.HALT),
                                               False, None)], 1, True, "t")
        clone = loads_cf_trace(dumps_cf_trace(trace))
        assert next(clone.iter_records()).target is None

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.booleans(),
                              st.integers(0, 1000)), max_size=30))
    def test_round_trip_random_records(self, raw):
        records = [CFRecord(seq, pc, BR, taken, target)
                   for seq, (pc, taken, target) in enumerate(raw)]
        trace = CFTrace.from_records(records, len(records) + 1, False,
                                     "rand")
        clone = loads_cf_trace(dumps_cf_trace(trace))
        assert list(clone.iter_records()) == records


class TestFormattingUtilities:
    def test_format_table_alignment(self):
        from repro.util.fmt import format_table
        text = format_table(("name", "value"),
                            [("alpha", 1), ("b", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("name")
        assert "alpha" in lines[3]
        assert lines[3].endswith("1")      # numeric column right-aligned

    def test_format_table_rejects_ragged_rows(self):
        from repro.util.fmt import format_table
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_percent(self):
        from repro.util.fmt import format_percent
        assert format_percent(0.5) == "50.00%"
        assert format_percent(1.0, digits=0) == "100%"

    def test_xorshift_deterministic(self):
        from repro.util.rng import Xorshift64
        a = Xorshift64(42)
        b = Xorshift64(42)
        assert [a.next_u64() for _ in range(5)] \
            == [b.next_u64() for _ in range(5)]

    def test_xorshift_randint_bounds(self):
        from repro.util.rng import Xorshift64
        gen = Xorshift64(7)
        values = gen.sample_values(200, 3, 9)
        assert all(3 <= v <= 9 for v in values)
        assert len(set(values)) > 1

    def test_xorshift_empty_range_rejected(self):
        from repro.util.rng import Xorshift64
        with pytest.raises(ValueError):
            Xorshift64().randint(5, 4)

    def test_zero_seed_replaced(self):
        from repro.util.rng import Xorshift64
        assert Xorshift64(0).next_u64() != 0


class TestLegacyTextRejected:
    """The retired v1/v2 text formats, and any other non-v3 input, fail
    every reader with a clean ValueError."""

    LEGACY = [
        "#cftrace v1 name=x total=5 halted=1 records=1\n0 1 1 1 0\n",
        "#cftrace v1 name=x total=5 halted=1\n0 1 1 1 0\n",
        "#cftrace v2 name=x total=5 halted=1 records=1\n0 1 1 1 0\n",
        "#cftrace v9 name=x total=1 halted=1 records=0\n",
        "",
    ]

    @pytest.mark.parametrize("text", LEGACY,
                             ids=["v1", "v1-uncounted", "v2", "v9", "empty"])
    def test_every_reader_rejects(self, text, tmp_path):
        from repro.trace import open_cf_batches, read_cf_header
        path = tmp_path / "legacy.cft"
        path.write_text(text)
        readers = [
            lambda: load_cf_trace(str(path)),
            lambda: load_cf_trace(io.BytesIO(text.encode())),
            lambda: load_cf_trace(io.StringIO(text)),
            lambda: read_cf_header(str(path)),
            lambda: open_cf_batches(str(path)),
            lambda: loads_cf_trace(text.encode()),
        ]
        for read in readers:
            with pytest.raises(ValueError, match="not a v3"):
                read()
