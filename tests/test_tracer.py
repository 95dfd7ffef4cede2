"""Tests for the fast tracing interpreters, including differential tests
against the readable reference machine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Machine, trace_control_flow, trace_full
from repro.cpu.tracer import TraceBudgetExceeded
from repro.isa import InstrKind, Instruction, Opcode, Program, assemble
from repro.trace import CFRecord

LOOP_SRC = """
.data table 8 = 3 1 4 1 5 9 2 6
main:
    li t0, 0
    li t1, 0
loop:
    ld t2, 65536(t0)
    add t1, t1, t2
    addi t0, t0, 1
    li t3, 8
    blt t0, t3, loop
    halt
"""


def machine_cf_records(program, budget=100000):
    """Step the reference machine, reconstructing CF records."""
    machine = Machine(program)
    records = []
    seq = 0
    while not machine.halted and seq < budget:
        pc_before = machine.pc
        instr = machine.step()
        if instr.is_control:
            if instr.kind is InstrKind.BRANCH:
                taken = machine.pc != pc_before + 1
                records.append(CFRecord(seq, pc_before,
                                        int(instr.kind), taken,
                                        instr.target))
            elif instr.kind is InstrKind.HALT:
                records.append(CFRecord(seq, pc_before, int(instr.kind),
                                        False, None))
            else:
                records.append(CFRecord(seq, pc_before, int(instr.kind),
                                        True, machine.pc))
        seq += 1
    return records, seq


class TestControlFlowTrace:
    def test_matches_reference_machine(self):
        program = assemble(LOOP_SRC)
        expected, count = machine_cf_records(program)
        trace = trace_control_flow(program)
        assert list(trace.iter_records()) == expected
        assert trace.total_instructions == count
        assert trace.halted

    def test_trace_validates(self):
        trace = trace_control_flow(assemble(LOOP_SRC))
        assert trace.validate()

    def test_truncation_flag(self):
        program = assemble("main:\n  jmp main\n  halt\n")
        trace = trace_control_flow(program, max_instructions=50)
        assert not trace.halted
        assert trace.total_instructions == 50

    def test_truncation_can_raise(self):
        program = assemble("main:\n  jmp main\n  halt\n")
        with pytest.raises(TraceBudgetExceeded):
            trace_control_flow(program, max_instructions=50,
                               allow_truncation=False)

    def test_backward_records_iterator(self):
        trace = trace_control_flow(assemble(LOOP_SRC))
        backwards = [r for r in trace.iter_records() if r.is_backward]
        # 8 executions of the closing branch (7 taken + 1 not taken).
        assert len(backwards) == 8
        assert sum(1 for r in backwards if r.taken) == 7


class TestFullTrace:
    def test_every_instruction_recorded(self):
        program = assemble(LOOP_SRC)
        cf = trace_control_flow(program)
        full = trace_full(program)
        assert len(full.records) == full.total_instructions \
            == cf.total_instructions

    def test_projection_matches_cf_trace(self):
        program = assemble(LOOP_SRC)
        assert list(trace_full(program).control_flow().iter_records()) \
            == list(trace_control_flow(program).iter_records())

    def test_final_register_state_matches_machine(self):
        program = assemble(LOOP_SRC)
        machine = Machine(program)
        machine.run()
        final = {}
        for rec in trace_full(program):
            for reg, value in rec.reg_writes:
                if reg:
                    final[reg] = value
        for reg, value in final.items():
            assert machine.regs[reg] == value

    def test_memory_writes_recorded(self):
        program = assemble(
            "main:\n  li t0, 500\n  li t1, 9\n  st t1, 2(t0)\n  halt\n")
        writes = [w for rec in trace_full(program) for w in rec.mem_writes]
        assert writes == [(502, 9)]


_SAFE_ALU = [Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
             Opcode.XOR, Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE,
             Opcode.MIN, Opcode.MAX, Opcode.DIV, Opcode.REM, Opcode.SLL,
             Opcode.SRL, Opcode.SRA]
_SAFE_IMM = [Opcode.ADDI, Opcode.SUBI, Opcode.MULI, Opcode.ANDI, Opcode.ORI,
             Opcode.XORI, Opcode.SLTI, Opcode.DIVI, Opcode.REMI,
             Opcode.SLLI, Opcode.SRLI, Opcode.SRAI]

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1

#: Registers the random body may touch: the zero register, and ten
#: scratch registers clear of ra (1), sp (2) and the loop's 20-22.
_reg = st.one_of(st.just(0), st.integers(min_value=10, max_value=19))
_imm = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.sampled_from([_I64_MIN, _I64_MIN + 1, -1, _I64_MAX - 1, _I64_MAX]),
    st.integers(min_value=_I64_MIN, max_value=_I64_MAX))

_body_instr = st.one_of(
    st.builds(lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1,
                                                   rs2=rs2),
              st.sampled_from(_SAFE_ALU), _reg, _reg, _reg),
    st.builds(lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1,
                                                   imm=imm),
              st.sampled_from(_SAFE_IMM), _reg, _reg, _imm),
    st.builds(lambda rd, imm: Instruction(Opcode.LI, rd=rd, imm=imm),
              _reg, _imm),
    st.builds(lambda rd, rs1: Instruction(Opcode.MV, rd=rd, rs1=rs1),
              _reg, _reg),
    st.builds(lambda rd, rs1, imm: Instruction(Opcode.LD, rd=rd, rs1=rs1,
                                               imm=imm),
              _reg, _reg, st.integers(min_value=-8, max_value=8)),
    st.builds(lambda rs2, rs1, imm: Instruction(Opcode.ST, rs2=rs2,
                                                rs1=rs1, imm=imm),
              _reg, _reg, st.integers(min_value=-8, max_value=8)),
)


@st.composite
def looped_programs(draw):
    """A random straight-line body inside a counted loop, optionally
    calling a random subroutine and jumping through a register.

    The body covers every ALU form (shifts included), ``li``/``mv``,
    loads and stores, register 0 as source and destination, and
    immediates at the signed 64-bit bounds -- what block translation
    inlines.  ``call``/``ret`` and ``jr`` end blocks mid-loop.
    """
    body = draw(st.lists(_body_instr, min_size=1, max_size=20))
    tail = draw(st.lists(_body_instr, max_size=6))
    subroutine = draw(st.one_of(st.none(),
                                st.lists(_body_instr, max_size=8)))
    indirect = draw(st.booleans())
    iterations = draw(st.integers(min_value=1, max_value=5))
    program = Program(name="random")
    program.label("main")
    program.emit(Instruction(Opcode.LI, rd=20, imm=0))
    program.label("loop")
    for instr in body:
        program.emit(instr)
    if subroutine is not None:
        program.emit(Instruction(Opcode.CALL, label="sub"))
    if indirect:
        # jr over one instruction: its target is the pc after the skip
        program.emit(Instruction(Opcode.LI, rd=22,
                                 imm=len(program.instructions) + 3))
        program.emit(Instruction(Opcode.JR, rs1=22))
        program.emit(Instruction(Opcode.HALT))
    for instr in tail:
        program.emit(instr)
    program.emit(Instruction(Opcode.ADDI, rd=20, rs1=20, imm=1))
    program.emit(Instruction(Opcode.LI, rd=21, imm=iterations))
    program.emit(Instruction(Opcode.BLT, rs1=20, rs2=21, label="loop"))
    program.emit(Instruction(Opcode.HALT))
    if subroutine is not None:
        program.label("sub")
        for instr in subroutine:
            program.emit(instr)
        program.emit(Instruction(Opcode.RET))
    return program


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(looped_programs())
    def test_tracer_agrees_with_reference_machine(self, program):
        machine = Machine(program)
        machine.run(max_instructions=100000)
        trace = trace_full(program, max_instructions=100000)
        assert trace.total_instructions == machine.instruction_count
        final = {}
        for rec in trace:
            for reg, value in rec.reg_writes:
                if reg:
                    final[reg] = value
        for reg, value in final.items():
            assert machine.regs[reg] == value

    @settings(max_examples=60, deadline=None)
    @given(looped_programs())
    def test_cf_and_full_traces_consistent(self, program):
        cf = trace_control_flow(program, max_instructions=100000)
        full = trace_full(program, max_instructions=100000)
        assert list(full.control_flow().iter_records()) \
            == list(cf.iter_records())
        cf.validate()


class TestTranslatedDifferential:
    """Every block translated on its first entry, in both emission
    modes, against the Machine-stepped reference (tests/reference/
    tracer.py)."""

    @settings(max_examples=80, deadline=None)
    @given(looped_programs(), st.sampled_from([1, 7, 4096]),
           st.booleans())
    def test_translated_blocks_agree_with_reference(self, program,
                                                    chunk_size, full):
        from unittest import mock

        from reference.tracer import ReferenceTracer, outcome
        from repro.cpu import tracer as tracer_mod

        cls = (tracer_mod.ChunkedFullTracer if full
               else tracer_mod.ChunkedCFTracer)
        expected = outcome(ReferenceTracer(program, 100_000,
                                           chunk_size=chunk_size,
                                           full=full))
        with mock.patch.object(tracer_mod, "HOT_ENTRIES", 1):
            got = outcome(cls(program, 100_000, chunk_size=chunk_size))
        assert got == expected
        assert expected[1][1]          # halted


def _chunk_fixture():
    """A program with calls, nested loops and irregular branches."""
    from repro.workloads import get
    return get("go").program()


class TestChunkedTracer:
    """The chunked tracer is the one control-flow loop; it is pinned to
    the reference machine at every chunking."""

    def test_chunks_concatenate_to_full_trace(self):
        from repro.cpu import ChunkedCFTracer
        program = _chunk_fixture()
        expected, count = machine_cf_records(program, budget=50_000)
        for chunk_size in (1, 7, ChunkedCFTracer.DEFAULT_CHUNK):
            tracer = ChunkedCFTracer(program, 50_000, chunk_size=chunk_size)
            records = []
            for batch in tracer.batches():
                assert 0 < len(batch) <= chunk_size
                records.extend(batch.iter_records())
            assert records == expected, chunk_size
            assert tracer.total_instructions == count
            assert tracer.halted is False
            assert tracer.program_name == program.name

    def test_metadata_unavailable_before_exhaustion(self):
        from repro.cpu import ChunkedCFTracer
        tracer = ChunkedCFTracer(_chunk_fixture(), 1_000, chunk_size=16)
        with pytest.raises(RuntimeError):
            tracer.total_instructions
        gen = tracer.batches()
        next(gen)
        with pytest.raises(RuntimeError):
            tracer.halted

    def test_truncation_can_raise(self):
        from repro.cpu import ChunkedCFTracer
        from repro.cpu.tracer import TraceBudgetExceeded
        tracer = ChunkedCFTracer(_chunk_fixture(), 10,
                                 allow_truncation=False)
        with pytest.raises(TraceBudgetExceeded):
            list(tracer.batches())

    def test_bad_chunk_size_rejected(self):
        from repro.cpu import ChunkedCFTracer
        with pytest.raises(ValueError):
            ChunkedCFTracer(_chunk_fixture(), 1_000, chunk_size=0)
