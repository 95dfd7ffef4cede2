"""Unit tests for instruction representation and classification."""

import pytest

from repro.isa import (
    ALU_IMM_OPS,
    ALU_OPS,
    BRANCH_OPS,
    InstrKind,
    Instruction,
    IsaError,
    Opcode,
)


class TestInstrKind:
    def test_branches_classified(self):
        for op in BRANCH_OPS:
            assert Instruction(op, rs1=1, rs2=2, target=0).kind \
                is InstrKind.BRANCH

    def test_jump_call_ret_halt_kinds(self):
        assert Instruction(Opcode.JMP, target=0).kind is InstrKind.JUMP
        assert Instruction(Opcode.JR, rs1=5).kind is InstrKind.IJUMP
        assert Instruction(Opcode.CALL, target=0).kind is InstrKind.CALL
        assert Instruction(Opcode.RET).kind is InstrKind.RET
        assert Instruction(Opcode.HALT).kind is InstrKind.HALT

    def test_alu_is_other(self):
        for op in list(ALU_OPS) + list(ALU_IMM_OPS):
            assert Instruction(op, rd=1, rs1=2, rs2=3).kind is InstrKind.OTHER


class TestInstructionValidation:
    def test_branch_without_target_rejected(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.BEQ, rs1=1, rs2=2).validate()

    def test_branch_with_label_accepted(self):
        Instruction(Opcode.BEQ, rs1=1, rs2=2, label="loop").validate()

    def test_register_out_of_range_rejected(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.ADD, rd=32, rs1=0, rs2=0).validate()

    def test_immediate_outside_signed_64_bit_rejected(self):
        """Machine wrapped an out-of-range ``li`` immediate while the
        tracers stored it raw; no such immediate is valid now."""
        for imm in (1 << 63, -(1 << 63) - 1, 1 << 64):
            with pytest.raises(IsaError):
                Instruction(Opcode.LI, rd=5, imm=imm).validate()
            with pytest.raises(IsaError):
                Instruction(Opcode.ADDI, rd=5, rs1=5, imm=imm).validate()
        for imm in ((1 << 63) - 1, -(1 << 63)):
            Instruction(Opcode.LI, rd=5, imm=imm).validate()

    def test_opcode_coercion_from_string(self):
        assert Instruction("add", rd=1, rs1=2, rs2=3).op is Opcode.ADD

    def test_unknown_opcode_string(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate")


class TestRendering:
    def test_render_alu(self):
        text = Instruction(Opcode.ADD, rd=10, rs1=11, rs2=12).render()
        assert text == "add t0, t1, t2"

    def test_render_memory(self):
        assert Instruction(Opcode.LD, rd=10, rs1=3, imm=4).render() \
            == "ld t0, 4(fp)"
        assert Instruction(Opcode.ST, rs2=10, rs1=3, imm=4).render() \
            == "st t0, 4(fp)"

    def test_render_branch_with_label(self):
        text = Instruction(Opcode.BLT, rs1=10, rs2=11, label="top").render()
        assert text == "blt t0, t1, top"

