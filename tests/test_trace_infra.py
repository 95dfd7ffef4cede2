"""Tests for trace containers, statistics, serialization and utilities."""

import io
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import InstrKind, assemble
from repro.cpu import trace_control_flow
from repro.trace import (
    CFRecord,
    CFTrace,
    basic_block_profile,
    clip,
    collect_cf_stats,
    dump_cf_trace,
    dumps_cf_trace,
    load_cf_trace,
    loads_cf_trace,
    straight_line_runs,
)

BR = int(InstrKind.BRANCH)
JMP = int(InstrKind.JUMP)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_text(version):
    """The committed legacy text trace (nothing writes v1/v2 anymore)."""
    with open(os.path.join(FIXTURES, "loop_v%d.cft" % version),
              encoding="ascii") as fh:
        return fh.read()

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
            CFTrace(records, 10, True).validate()

    def test_straight_line_gap_mismatch_rejected(self):
        records = [CFRecord(0, 10, BR, False, 5),
                   CFRecord(3, 99, BR, False, 5)]   # gap says pc 13
        with pytest.raises(ValueError):
            CFTrace(records, 10, True).validate()

    def test_record_beyond_length_rejected(self):
        records = [CFRecord(12, 10, BR, True, 10)]
        with pytest.raises(ValueError):
            CFTrace(records, 10, True).validate()


class TestClipAndRuns:
    def test_clip_shortens(self, loop_trace):
        half = clip(loop_trace, loop_trace.total_instructions // 2)
        assert half.total_instructions \
            == loop_trace.total_instructions // 2
        assert not half.halted
        assert all(r.seq < half.total_instructions for r in half.records)

    def test_clip_noop_when_longer(self, loop_trace):
        same = clip(loop_trace, loop_trace.total_instructions * 2)
        assert same is loop_trace

    def test_straight_line_runs_cover_gaps(self, loop_trace):
        runs = list(straight_line_runs(loop_trace))
        gap_instructions = sum(length for _start, length in runs)
        implicit = loop_trace.total_instructions - len(loop_trace.records)
        # The run before the first control transfer is not attributed
        # (no known start pc), so coverage is bounded by implicit count.
        assert 0 < gap_instructions <= implicit


class TestStats:
    def test_counts_on_known_loop(self, loop_trace):
        stats = collect_cf_stats(loop_trace)
        assert stats.branch_count == 6          # 5 taken + 1 not taken
        assert stats.taken_branches == 5
        assert stats.backward_taken == 5
        assert stats.unique_backward_targets == {1}
        assert 0 < stats.taken_ratio < 1
        assert stats.as_dict()["branches"] == 6

    def test_basic_block_profile(self, loop_trace):
        profile = basic_block_profile(loop_trace)
        assert sum(profile.values()) == len(loop_trace.records)
        assert all(size >= 1 for size in profile)

    def test_control_density(self, loop_trace):
        stats = collect_cf_stats(loop_trace)
        assert stats.control_density \
            == len(loop_trace.records) / loop_trace.total_instructions


class TestSerialization:
    def test_string_round_trip(self, loop_trace):
        text = dumps_cf_trace(loop_trace)
        clone = loads_cf_trace(text)
        assert clone.records == loop_trace.records
        assert clone.total_instructions == loop_trace.total_instructions
        assert clone.halted == loop_trace.halted
        assert clone.program_name == loop_trace.program_name

    def test_file_round_trip(self, loop_trace, tmp_path):
        path = tmp_path / "trace.cft"
        dump_cf_trace(loop_trace, str(path))
        clone = load_cf_trace(str(path))
        assert clone.records == loop_trace.records

    def test_file_object_round_trip(self, loop_trace):
        buf = io.BytesIO()               # the default format is binary
        dump_cf_trace(loop_trace, buf)
        buf.seek(0)
        clone = load_cf_trace(buf)
        assert clone.records == loop_trace.records

    def test_text_file_object_round_trip(self):
        clone = load_cf_trace(io.StringIO(fixture_text(2)))
        assert clone.records == loads_cf_trace(fixture_text(1)).records
        assert clone.total_instructions == 78

    def test_text_file_object_rejected_for_v3(self, loop_trace):
        with pytest.raises(TypeError, match="binary"):
            dump_cf_trace(loop_trace, io.StringIO())

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            loads_cf_trace("#wrong v9\n")

    def test_none_target_round_trips(self):
        trace = CFTrace([CFRecord(0, 5, int(InstrKind.HALT), False,
                                  None)], 1, True, "t")
        clone = loads_cf_trace(dumps_cf_trace(trace))
        assert clone.records[0].target is None

    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 1000),
                              st.booleans(),
                              st.integers(0, 1000)), max_size=30))
    def test_round_trip_random_records(self, raw):
        records = [CFRecord(seq, pc, BR, taken, target)
                   for seq, (pc, taken, target) in enumerate(raw)]
        trace = CFTrace(records, len(records) + 1, False, "rand")
        clone = loads_cf_trace(dumps_cf_trace(trace))
        assert clone.records == trace.records


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


class TestSerializationV2:
    """The legacy text formats stay readable (committed fixtures)."""

    def test_v2_round_trip(self):
        from repro.trace import loads_cf_trace
        text = fixture_text(2)
        assert text.startswith("#cftrace v2 ")
        clone = loads_cf_trace(text)
        assert len(clone.records) == 25
        assert clone.total_instructions == 78
        assert clone.halted
        assert clone.program_name == "fixture-loop"

    def test_v1_and_v2_record_lines_identical(self):
        v1 = fixture_text(1).splitlines()[1:]
        v2 = fixture_text(2).splitlines()[1:]
        assert v1 == v2

    def test_unknown_version_rejected(self):
        from repro.trace import read_cf_header
        with pytest.raises(ValueError):
            read_cf_header(io.StringIO(
                "#cftrace v9 name=x total=1 halted=1 records=0\n"))

    def test_header_declares_record_count(self):
        from repro.trace import read_cf_header
        for version in (1, 2):
            header = read_cf_header(io.StringIO(fixture_text(version)))
            assert header.version == version
            assert header.records == 25
            assert header.total_instructions == 78

    def test_open_cf_batches_streams_and_validates(self, tmp_path):
        from repro.trace import open_cf_batches
        path = tmp_path / "t.cft"
        path.write_text(fixture_text(2))
        header, batches = open_cf_batches(str(path))
        assert [r for b in batches for r in b.iter_records()] \
            == loads_cf_trace(fixture_text(1)).records
        assert header.program_name == "fixture-loop"


class TestCorruptTraceFiles:
    """Truncated or tampered trace files must raise, not load short."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_truncated_file_rejected(self, version):
        from repro.trace import loads_cf_trace
        lines = fixture_text(version).splitlines(keepends=True)
        assert len(lines) > 3
        with pytest.raises(ValueError, match="truncated or tampered"):
            loads_cf_trace("".join(lines[:-2]))

    @pytest.mark.parametrize("version", [1, 2])
    def test_appended_records_rejected(self, version):
        from repro.trace import loads_cf_trace
        text = fixture_text(version) + "9 9 1 0 -\n"
        with pytest.raises(ValueError, match="truncated or tampered"):
            loads_cf_trace(text)

    @pytest.mark.parametrize("junk", ["20128 14", "a b c d e",
                                      "1 2 3 7 -", "1 2 3 4 5 6"])
    @pytest.mark.parametrize("version", [1, 2])
    def test_malformed_line_rejected(self, version, junk):
        from repro.trace import loads_cf_trace
        lines = fixture_text(version).splitlines()
        lines[2] = junk
        with pytest.raises(ValueError, match="malformed"):
            loads_cf_trace("\n".join(lines) + "\n")

    def test_malformed_header_rejected(self):
        from repro.trace import loads_cf_trace
        with pytest.raises(ValueError):
            loads_cf_trace("#cftrace v1 name=x total=abc halted=1\n")
        with pytest.raises(ValueError):
            loads_cf_trace("#cftrace v2 name=x total=5 halted=1\n")

    def test_legacy_v1_header_without_count_still_loads(self):
        from repro.trace import loads_cf_trace
        lines = fixture_text(1).splitlines()
        legacy = lines[0].replace(" records=25", "")
        assert legacy != lines[0]
        clone = loads_cf_trace("\n".join([legacy] + lines[1:]) + "\n")
        assert clone.records == loads_cf_trace(fixture_text(1)).records

    def test_streaming_reader_raises_on_truncation(self, tmp_path):
        from repro.trace import open_cf_batches
        path = tmp_path / "t.cft"
        data = fixture_text(2).splitlines(keepends=True)
        path.write_text("".join(data[:-1]))
        _header, batches = open_cf_batches(str(path))
        with pytest.raises(ValueError, match="truncated or tampered"):
            list(batches)
