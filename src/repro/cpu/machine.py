"""Architectural state and a readable single-step interpreter.

:class:`Machine` is the reference implementation used by unit tests and
debugging sessions; the high-throughput tracing loops in
:mod:`repro.cpu.tracer` replicate its semantics over a packed program
form produced by :func:`pack_program`.
"""

from repro.isa.errors import ProgramError
from repro.isa.instructions import Opcode
from repro.isa.registers import NUM_REGISTERS, REG_SP, REG_ZERO
from repro.cpu.memory import Memory

#: Initial stack pointer; the stack grows toward lower addresses and is
#: far above any data-segment allocation.
STACK_TOP = 1 << 30

_MASK = (1 << 64) - 1
_SIGN = 1 << 63


def wrap64(value):
    """Wrap a Python int to signed 64-bit two's-complement."""
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


def _div(a, b):
    """Truncating signed division; division by zero yields 0."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a, b):
    """Remainder consistent with :func:`_div`: ``abs(a) % abs(b)`` with
    the sign of *a*; x % 0 yields x."""
    if b == 0:
        return a
    r = abs(a) % abs(b)
    return -r if a < 0 else r


# Packed opcode numbering used by the fast interpreter loops.  The order
# groups operand shapes so the dispatch chains stay short.
OPCODE_LIST = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL, Opcode.SRL,
    Opcode.SRA, Opcode.SLT, Opcode.SLE, Opcode.SEQ, Opcode.SNE,
    Opcode.MIN, Opcode.MAX,
    Opcode.ADDI, Opcode.SUBI, Opcode.MULI, Opcode.DIVI, Opcode.REMI,
    Opcode.ANDI, Opcode.ORI, Opcode.XORI, Opcode.SLLI, Opcode.SRLI,
    Opcode.SRAI, Opcode.SLTI,
    Opcode.LI, Opcode.MV, Opcode.LD, Opcode.ST,
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLE, Opcode.BGT,
    Opcode.JMP, Opcode.JR, Opcode.CALL, Opcode.RET,
    Opcode.NOP, Opcode.HALT,
]
OP_CODE = {op: i for i, op in enumerate(OPCODE_LIST)}

# Named constants for the dispatch chains.
(C_ADD, C_SUB, C_MUL, C_DIV, C_REM, C_AND, C_OR, C_XOR, C_SLL, C_SRL,
 C_SRA, C_SLT, C_SLE, C_SEQ, C_SNE, C_MIN, C_MAX,
 C_ADDI, C_SUBI, C_MULI, C_DIVI, C_REMI, C_ANDI, C_ORI, C_XORI, C_SLLI,
 C_SRLI, C_SRAI, C_SLTI,
 C_LI, C_MV, C_LD, C_ST,
 C_BEQ, C_BNE, C_BLT, C_BGE, C_BLE, C_BGT,
 C_JMP, C_JR, C_CALL, C_RET,
 C_NOP, C_HALT) = range(len(OPCODE_LIST))

#: Codes of conditional branches, used by the tracing loops.
BRANCH_CODES = frozenset({C_BEQ, C_BNE, C_BLT, C_BGE, C_BLE, C_BGT})

_ALU = {
    C_ADD: lambda a, b: wrap64(a + b),
    C_SUB: lambda a, b: wrap64(a - b),
    C_MUL: lambda a, b: wrap64(a * b),
    C_DIV: _div,
    C_REM: _rem,
    C_AND: lambda a, b: a & b,
    C_OR: lambda a, b: a | b,
    C_XOR: lambda a, b: a ^ b,
    C_SLL: lambda a, b: wrap64(a << (b & 63)),
    C_SRL: lambda a, b: (a & _MASK) >> (b & 63),
    C_SRA: lambda a, b: a >> (b & 63),
    C_SLT: lambda a, b: 1 if a < b else 0,
    C_SLE: lambda a, b: 1 if a <= b else 0,
    C_SEQ: lambda a, b: 1 if a == b else 0,
    C_SNE: lambda a, b: 1 if a != b else 0,
    C_MIN: min,
    C_MAX: max,
}

_BRANCH = {
    C_BEQ: lambda a, b: a == b,
    C_BNE: lambda a, b: a != b,
    C_BLT: lambda a, b: a < b,
    C_BGE: lambda a, b: a >= b,
    C_BLE: lambda a, b: a <= b,
    C_BGT: lambda a, b: a > b,
}

#: Immediate-form code -> register-form code (same semantics).
_IMM_TO_REG = {
    C_ADDI: C_ADD, C_SUBI: C_SUB, C_MULI: C_MUL, C_DIVI: C_DIV,
    C_REMI: C_REM, C_ANDI: C_AND, C_ORI: C_OR, C_XORI: C_XOR,
    C_SLLI: C_SLL, C_SRLI: C_SRL, C_SRAI: C_SRA, C_SLTI: C_SLT,
}


def pack_program(program):
    """Compile a finalized program to the packed tuple form.

    Each element is ``(code, rd, rs1, rs2, imm, target)``; the fast
    interpreter loops index this tuple with the program counter.  Equal
    instructions share one element: the packed form lives as long as
    the program (:func:`packed_form`), and compiled code repeats
    instructions about five times over.
    """
    program.finalize()
    shared = {}
    return tuple(shared.setdefault(row, row) for row in (
        (OP_CODE[instr.op], instr.rd, instr.rs1, instr.rs2, instr.imm,
         instr.target) for instr in program.instructions))


def packed_form(program):
    """:func:`pack_program` of *program*, packed once per finalized
    program and shared by the tracers and the cache fingerprint."""
    return program.memoized("packed", pack_program)


class Machine:
    """Architectural state plus a straightforward interpreter."""

    def __init__(self, program):
        program.finalize()
        self.program = program
        self.regs = [0] * NUM_REGISTERS
        self.regs[REG_SP] = STACK_TOP
        self.memory = Memory(program.data.initial)
        self.pc = program.entry
        self.halted = False
        self.instruction_count = 0

    def read_reg(self, index):
        return 0 if index == REG_ZERO else self.regs[index]

    def write_reg(self, index, value):
        if index != REG_ZERO:
            self.regs[index] = value

    def step(self):
        """Execute one instruction; returns the executed instruction."""
        if self.halted:
            raise ProgramError("machine is halted")
        instr = self.program.instructions[self.pc]
        code = OP_CODE[instr.op]
        regs = self.regs
        next_pc = self.pc + 1

        if code in _ALU:
            self.write_reg(instr.rd, _ALU[code](self.read_reg(instr.rs1),
                                                self.read_reg(instr.rs2)))
        elif code in _IMM_TO_REG:
            fn = _ALU[_IMM_TO_REG[code]]
            self.write_reg(instr.rd, fn(self.read_reg(instr.rs1), instr.imm))
        elif code == C_LI:
            self.write_reg(instr.rd, instr.imm)
        elif code == C_MV:
            self.write_reg(instr.rd, self.read_reg(instr.rs1))
        elif code == C_LD:
            addr = self.read_reg(instr.rs1) + instr.imm
            self.write_reg(instr.rd, self.memory.load(addr))
        elif code == C_ST:
            addr = self.read_reg(instr.rs1) + instr.imm
            self.memory.store(addr, self.read_reg(instr.rs2))
        elif code in _BRANCH:
            if _BRANCH[code](self.read_reg(instr.rs1),
                             self.read_reg(instr.rs2)):
                next_pc = instr.target
        elif code == C_JMP:
            next_pc = instr.target
        elif code == C_JR:
            next_pc = self.read_reg(instr.rs1)
        elif code == C_CALL:
            regs[1] = self.pc + 1  # ra
            next_pc = instr.target
        elif code == C_RET:
            next_pc = regs[1]
        elif code == C_HALT:
            self.halted = True
        elif code != C_NOP:
            raise ProgramError("unknown opcode %r" % instr.op)

        self.pc = next_pc
        self.instruction_count += 1
        return instr

    def run(self, max_instructions=10_000_000):
        """Run until halt or the instruction cap; returns the count."""
        while not self.halted:
            if self.instruction_count >= max_instructions:
                raise ProgramError(
                    "instruction budget of %d exhausted" % max_instructions)
            self.step()
        return self.instruction_count
