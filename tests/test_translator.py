"""The tiered tracing loop against the Machine-stepped reference.

``tests/reference/tracer.py`` steps :class:`repro.cpu.machine.Machine`
and emits what both chunked tracers promise: control-flow columns, and
for the study tracer (``full``) the steps regrouped into one
:class:`~repro.trace.batch.StudyBatch` row per block.  Every case here
runs a tracer and the reference at one budget, chunk size and
``allow_truncation``, and compares every batch column and row,
``total_instructions`` and ``halted`` (or that both raise after the
same batches).  ``HOT_ENTRIES`` is patched to 1 to translate every
block on its first entry, and to 3 to mix tiers inside loops, as well
as left at its default.
"""

from fractions import Fraction

import pytest

from repro.cpu import Machine
from repro.cpu import tracer as tracer_mod
from repro.cpu.machine import _div, _rem, packed_form
from repro.cpu.tracer import ChunkedCFTracer, ChunkedFullTracer, _Columns
from repro.cpu.translate import HELPERS, translate
from repro.obs import collector as obs
from repro.search.corpus import frontier_names
from repro.workloads import get
from repro.workloads.suite import SUITE_ORDER

from assembler import assemble
from reference.tracer import ReferenceTracer, outcome

#: Translation thresholds every case runs at.
THRESHOLDS = (1, 3, tracer_mod.HOT_ENTRIES)


def assert_matches_reference(monkeypatch, program, budget, full,
                             chunk_size=None, allow_truncation=True):
    cls = ChunkedFullTracer if full else ChunkedCFTracer
    chunk_size = chunk_size or cls.DEFAULT_CHUNK
    expected = outcome(ReferenceTracer(program, budget, allow_truncation,
                                       chunk_size, full))
    for hot in THRESHOLDS:
        monkeypatch.setattr(tracer_mod, "HOT_ENTRIES", hot)
        got = outcome(cls(program, budget, allow_truncation, chunk_size))
        assert got == expected, (program.name, budget, full, chunk_size,
                                 allow_truncation, hot)
    return expected


@pytest.mark.parametrize("full", [False, True], ids=["cf", "full"])
@pytest.mark.parametrize("name", SUITE_ORDER)
def test_analog_matches_reference(monkeypatch, name, full):
    assert_matches_reference(monkeypatch, get(name).program(1), 10_000,
                             full)


@pytest.mark.parametrize("full", [False, True], ids=["cf", "full"])
@pytest.mark.parametrize("name", frontier_names())
def test_frontier_case_matches_reference(monkeypatch, name, full):
    workload = get(name)
    budget = min(workload.default_max_instructions, 10_000)
    assert_matches_reference(monkeypatch, workload.program(), budget, full)


@pytest.mark.parametrize("full", [False, True], ids=["cf", "full"])
@pytest.mark.parametrize("chunk_size", [1, 7, None])
def test_chunk_sizes(monkeypatch, chunk_size, full):
    assert_matches_reference(monkeypatch, get("go").program(1), 3_000,
                             full, chunk_size)


@pytest.mark.parametrize("full", [False, True], ids=["cf", "full"])
def test_budgets_ending_mid_block(monkeypatch, full):
    """Budgets whose last instruction is inside a hot block: the block
    runs on the per-instruction tier up to the budget."""
    program = get("li").program(1)
    last_tokens = set()
    for budget in (1001, 1002, 4097, 4099):
        batches, end = assert_matches_reference(
            monkeypatch, program, budget, full, chunk_size=7)
        assert end == (budget, False)
        if full:
            last_tokens.add(batches[-1][2][-1][3])
    if full:   # some budget's last instruction is not a terminator
        assert None in last_tokens


@pytest.mark.parametrize("chunk_size", [5, 50])
def test_block_split_across_chunk_seam(monkeypatch, chunk_size):
    """A chunk seam inside a block: the study batch runs on to the
    block's end, so a batch may cover more than ``chunk_size``
    instructions but no row is ever cut in two."""
    batches, _ = assert_matches_reference(
        monkeypatch, get("swim").program(1), 5_000, True, chunk_size)
    starts = [batch[0] for batch in batches]
    lengths = [batch[1] for batch in batches]
    assert starts == [sum(lengths[:i]) for i in range(len(batches))]
    assert all(length >= chunk_size for length in lengths[:-1])
    assert any(length > chunk_size for length in lengths)
    rows = [row for batch in batches for row in batch[2]]
    assert None not in [row[3] for row in rows[:-1]]
    assert [row[0] for batch in batches for row in batch[2][-1:]] \
        == [start + length - 1 for start, length in zip(starts, lengths)]


@pytest.mark.parametrize("full", [False, True], ids=["cf", "full"])
@pytest.mark.parametrize("chunk_size", [1, 7, 64])
def test_truncation_raises_after_the_same_batches(monkeypatch, chunk_size,
                                                  full):
    """``allow_truncation=False`` raises after exactly the batches the
    reference emits first, including budgets that are a multiple of
    the chunk size."""
    program = get("go").program(1)
    for budget in (10, 448, 449, 1001):        # 448 = 7 * 64
        _, end = assert_matches_reference(
            monkeypatch, program, budget, full, chunk_size,
            allow_truncation=False)
        assert end == "raised"


def _loop(iterations):
    return assemble(
        "main:\n li t0, 0\n li t1, %d\nloop:\n addi t0, t0, 1\n"
        " blt t0, t1, loop\n halt\n" % iterations)


def _counters(program):
    collector = obs.activate(obs.Collector())
    try:
        list(ChunkedCFTracer(program).batches())
    finally:
        obs.deactivate()
    return (collector.counters["cpu.blocks_translated"],
            collector.counters["cpu.cold_instructions"])


class TestTiers:
    def test_block_translated_on_its_hot_entries_th_entry(self):
        """The first block runs from the entry through the first
        iteration; the loop-body block is entered once per taken
        branch, ``iterations - 1`` times.  It stays on the chain for
        ``HOT_ENTRIES - 1`` entries and runs translated from the
        next."""
        hot = tracer_mod.HOT_ENTRIES
        chain = 2 + 2 * hot + 1
        assert _counters(_loop(hot)) == (0, chain)
        assert _counters(_loop(hot + 1)) == (1, chain)
        assert _counters(_loop(hot + 10)) == (1, chain)

    def test_translations_belong_to_one_run(self):
        program = _loop(1000)
        assert _counters(program) == _counters(program)
        assert _counters(program)[0] == 1

    def test_halt_block_never_translated(self, monkeypatch):
        monkeypatch.setattr(tracer_mod, "HOT_ENTRIES", 1)
        assert _counters(assemble("main:\n li t0, 1\n halt\n")) == (0, 2)


INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

#: The division edge cases: every dividend against every divisor.
DIVISORS = (0, 1, -1, 2, -2, 867, -867, INT64_MIN, INT64_MAX)
DIVIDENDS = (0, 1, -1, 866, -866, 868, -868, INT64_MIN, INT64_MAX)

_DIVISION_OPS = {"div", "rem", "divi", "remi"}


def _truncating(a, b):
    """``(quotient, remainder)`` of *a* by *b*, rounded toward zero by
    exact rational arithmetic; by zero it is ``(0, a)``."""
    if b == 0:
        return 0, a
    q = int(Fraction(a, b))
    return q, a - q * b


def _division_program():
    """Each (dividend, divisor) case in two blocks.  ``c<i>`` sets the
    operands and divides them while they are literals of the block;
    ``d<i>`` divides them again as registers loaded at its entry.  Each
    block starts by reading the results of the one before it, so its
    study row carries them as upward-exposed values."""
    lines = ["main:", " jmp c0"]
    cases = [(x, y) for x in DIVIDENDS for y in DIVISORS]
    for i, (x, y) in enumerate(cases):
        lines += [
            "c%d:" % i, " add t0, s2, s3", " add t1, s4, s5",
            " li s0, %d" % x, " li s1, %d" % y,
            " div s6, s0, s1", " rem s7, s0, s1",
            " divi s8, s0, %d" % y, " remi s9, s0, %d" % y,
            " jmp d%d" % i,
            "d%d:" % i, " add t2, s6, s7", " add t3, s8, s9",
            " div s2, s0, s1", " rem s3, s0, s1",
            " divi s4, s0, %d" % y, " remi s5, s0, %d" % y,
            " jmp c%d" % (i + 1)]
    lines += ["c%d:" % len(cases), " add t0, s2, s3", " add t1, s4, s5",
              " halt"]
    return assemble("\n".join(lines) + "\n"), len(cases)


class TestDivision:
    """``DIV``/``REM``/``DIVI``/``REMI`` on the edge cases: the helpers
    and the Machine against exact rational division, and translated
    blocks (``HOT_ENTRIES`` 1) and the per-instruction chain against
    the Machine-stepped reference, with literal and register operands."""

    def test_int64_min_by_minus_one_is_left_unwrapped(self):
        assert _div(INT64_MIN, -1) == 1 << 63
        assert _rem(INT64_MIN, -1) == 0

    def test_helpers_divide_toward_zero(self):
        for x in DIVIDENDS:
            for y in DIVISORS:
                assert (_div(x, y), _rem(x, y)) == _truncating(x, y), (x, y)

    def test_machine_divides_toward_zero(self):
        program, cases = _division_program()
        machine = Machine(program)
        checked = 0
        while not machine.halted:
            before = list(machine.regs)
            instr = machine.step()
            op = instr.op.value
            if op in _DIVISION_OPS:
                divisor = instr.imm if op.endswith("i") \
                    else before[instr.rs2]
                quotient, remainder = _truncating(before[instr.rs1],
                                                  divisor)
                expected = quotient if op.startswith("div") else remainder
                assert machine.regs[instr.rd] == expected, (instr, before)
                checked += 1
        assert checked == 8 * cases

    def test_tiers_match_the_reference(self, monkeypatch):
        program, cases = _division_program()
        for full in (False, True):
            _, end = assert_matches_reference(monkeypatch, program,
                                              100_000, full)
            assert end == (16 * cases + 4, True)

    def test_constant_divisor_is_inlined(self):
        """A nonzero immediate divides inline; zero and the register
        forms call the helpers."""
        namespace = dict(_Columns().appenders, regs=[0] * 32, mem={},
                         mem_get={}.get, **HELPERS)

        def names(line):
            packed = packed_form(assemble(
                "main:\n%s\n jmp main\n halt\n" % line))
            run, _ = translate(packed, 0, False, namespace)
            return set(run.__code__.co_names)

        for line in (" divi s4, s0, 3", " remi s5, s0, -3",
                     " divi s4, s0, -1", " remi s5, s0, 1"):
            assert not names(line) & {"_div", "_rem"}, line
        assert "_div" in names(" divi s4, s0, 0")
        assert "_rem" in names(" remi s5, s0, 0")
        assert "_div" in names(" div s4, s0, s1")
        assert "_rem" in names(" rem s5, s0, s1")
