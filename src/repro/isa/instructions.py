"""Instruction representation.

Programs are sequences of :class:`Instruction` objects; the program
counter is the index into that sequence (word addressing).  The dynamic
loop detector only distinguishes instruction *kinds* (conditional branch,
direct jump, indirect jump, call, return, other), which is exactly the
classification the paper's hardware would get from the decoder.
"""

import enum

from repro.isa.errors import IsaError
from repro.isa.registers import register_name


class InstrKind(enum.IntEnum):
    """Dynamic classification of an instruction, as seen by the detector."""

    OTHER = 0
    BRANCH = 1   # conditional, direct target
    JUMP = 2     # unconditional, direct target
    IJUMP = 3    # unconditional, register target (e.g. switch tables)
    CALL = 4     # direct call; pushes the return address
    RET = 5      # subroutine return
    HALT = 6     # stops the machine


class Opcode(str, enum.Enum):
    """All opcodes the interpreter runs."""

    # Three-register ALU operations.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"      # truncating signed division; x/0 defined as 0
    REM = "rem"      # remainder matching DIV; x%0 defined as x
    AND = "and"
    OR = "or"
    XOR = "xor"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SLT = "slt"
    SLE = "sle"
    SEQ = "seq"
    SNE = "sne"
    MIN = "min"
    MAX = "max"

    # Register-immediate ALU operations.
    ADDI = "addi"
    SUBI = "subi"
    MULI = "muli"
    DIVI = "divi"
    REMI = "remi"
    ANDI = "andi"
    ORI = "ori"
    XORI = "xori"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    SLTI = "slti"

    # Data movement.
    LI = "li"        # rd <- imm
    MV = "mv"        # rd <- rs1
    LD = "ld"        # rd <- mem[rs1 + imm]
    ST = "st"        # mem[rs1 + imm] <- rs2

    # Control transfers.
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLE = "ble"
    BGT = "bgt"
    JMP = "jmp"
    JR = "jr"        # indirect jump through rs1
    CALL = "call"
    RET = "ret"

    # Miscellaneous.
    NOP = "nop"
    HALT = "halt"


#: Opcodes taking ``rd, rs1, rs2``.
ALU_OPS = frozenset({
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL,
    Opcode.SRA, Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE,
    Opcode.MIN, Opcode.MAX,
})

#: Opcodes taking ``rd, rs1, imm``.
ALU_IMM_OPS = frozenset({
    Opcode.ADDI, Opcode.SUBI, Opcode.MULI, Opcode.DIVI, Opcode.REMI,
    Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI, Opcode.SRLI,
    Opcode.SRAI, Opcode.SLTI,
})

#: Conditional branches taking ``rs1, rs2, target``.
BRANCH_OPS = frozenset({
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT,
})

#: Opcodes that need a target or label.
_TARGET_OPS = BRANCH_OPS | {Opcode.JMP, Opcode.CALL}

_KIND_BY_OPCODE = {
    Opcode.JMP: InstrKind.JUMP,
    Opcode.JR: InstrKind.IJUMP,
    Opcode.CALL: InstrKind.CALL,
    Opcode.RET: InstrKind.RET,
    Opcode.HALT: InstrKind.HALT,
}
for _op in BRANCH_OPS:
    _KIND_BY_OPCODE[_op] = InstrKind.BRANCH


class Instruction:
    """A single decoded instruction.

    ``target`` holds the resolved absolute instruction index for direct
    control transfers and ``label`` the unresolved symbolic name before
    :meth:`repro.isa.program.Program.finalize` runs.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "target", "label", "kind")

    def __init__(self, op, rd=0, rs1=0, rs2=0, imm=0, target=None, label=None):
        if not isinstance(op, Opcode):
            op = Opcode(op)
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target
        self.label = label
        self.kind = _KIND_BY_OPCODE.get(op, InstrKind.OTHER)

    def validate(self):
        """Raise :class:`IsaError` when operands are inconsistent."""
        if self.target is None and self.label is None \
                and self.op in _TARGET_OPS:
            raise IsaError("%s requires a target or label" % self.op.value)
        if not (0 <= self.rd < 32 and 0 <= self.rs1 < 32
                and 0 <= self.rs2 < 32):
            raise IsaError("register out of range in %r" % (self,))
        if not -(1 << 63) <= self.imm < 1 << 63:
            raise IsaError("immediate out of signed 64-bit range in %r"
                           % (self,))

    def __repr__(self):
        return "Instruction(%s)" % self.render()

    def render(self):
        """Render the instruction in assembler syntax."""
        op = self.op
        tgt = self.label if self.label is not None else str(self.target)
        if op in ALU_OPS:
            return "%s %s, %s, %s" % (op.value, register_name(self.rd),
                                      register_name(self.rs1),
                                      register_name(self.rs2))
        if op in ALU_IMM_OPS:
            return "%s %s, %s, %d" % (op.value, register_name(self.rd),
                                      register_name(self.rs1), self.imm)
        if op in BRANCH_OPS:
            return "%s %s, %s, %s" % (op.value, register_name(self.rs1),
                                      register_name(self.rs2), tgt)
        if op is Opcode.LI:
            return "li %s, %d" % (register_name(self.rd), self.imm)
        if op is Opcode.MV:
            return "mv %s, %s" % (register_name(self.rd),
                                  register_name(self.rs1))
        if op is Opcode.LD:
            return "ld %s, %d(%s)" % (register_name(self.rd), self.imm,
                                      register_name(self.rs1))
        if op is Opcode.ST:
            return "st %s, %d(%s)" % (register_name(self.rs2), self.imm,
                                      register_name(self.rs1))
        if op in (Opcode.JMP, Opcode.CALL):
            return "%s %s" % (op.value, tgt)
        if op is Opcode.JR:
            return "jr %s" % register_name(self.rs1)
        return op.value
