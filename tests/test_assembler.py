"""Unit tests for the text assembler."""

import pytest

from repro.isa import InstrKind, Opcode

from assembler import AssemblerError, assemble

GOOD = """
; a tiny counted loop
.data table 4 = 1 2 3 4
.entry main
main:
    li   t0, 0
loop:
    addi t0, t0, 1
    li   t1, 4
    blt  t0, t1, loop
    halt
"""


class TestAssembleBasics:
    def test_assembles_and_finalizes(self):
        program = assemble(GOOD)
        assert len(program) == 5
        assert program.entry == program.address_of("main")

    def test_labels_resolved_to_targets(self):
        program = assemble(GOOD)
        branch = program.instructions[3]
        assert branch.op is Opcode.BLT
        assert branch.target == program.address_of("loop")

    def test_data_directive(self):
        program = assemble(GOOD)
        base = program.data.address_of("table")
        assert [program.data.initial[base + i] for i in range(4)] \
            == [1, 2, 3, 4]

    def test_comments_and_blank_lines_ignored(self):
        program = assemble("main:\n  nop ; trailing\n  # whole line\n  halt\n")
        assert len(program) == 2

    def test_memory_operand_parsing(self):
        program = assemble("main:\n  ld t0, -3(fp)\n  st t0, 8(sp)\n  halt\n")
        ld, st = program.instructions[0], program.instructions[1]
        assert (ld.imm, ld.rs1) == (-3, 3)
        assert (st.imm, st.rs1) == (8, 2)

    def test_multiple_labels_one_address(self):
        program = assemble("a: b:\n  halt\n")
        assert program.address_of("a") == program.address_of("b") == 0

    def test_kinds_assigned(self):
        program = assemble("main:\n  jmp end\nend:\n  halt\n")
        assert program.instructions[0].kind is InstrKind.JUMP


class TestAssembleErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  bogus t0, t1\n  halt\n")

    def test_unresolved_label(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  jmp nowhere\n  halt\n")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  add t0, t1\n  halt\n")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  add q0, t1, t2\n  halt\n")

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError):
            assemble("a:\n  nop\na:\n  halt\n")

    def test_missing_halt_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("main:\n  nop\n")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError) as err:
            assemble("main:\n  halt\n  bogus\n")
        assert "line 3" in str(err.value)

    def test_immediate_outside_signed_64_bit_rejected(self):
        """Machine took this branch (it wrapped the immediate to -2**63)
        while the tracer recorded it not taken."""
        with pytest.raises(AssemblerError):
            assemble("main:\n li t0, 9223372036854775808\n li t1, 0\n"
                     " blt t0, t1, neg\n halt\nneg:\n halt\n")

    def test_bad_data_directive(self):
        with pytest.raises(AssemblerError):
            assemble(".data onlyname\nmain:\n  halt\n")
