"""Basic-block translation for the tiered tracing loop.

A block is the straight-line run of the packed program from an entry
pc through its first control instruction, the terminator.
:func:`translate` compiles one block with ``exec`` into a Python
function that takes the seq of the block's first instruction and
returns the next pc:

* straight-line instructions become inline statements, with the same
  ``wrap64`` range checks as :class:`~repro.cpu.machine.Machine`;
  ``divi``/``remi`` by a nonzero constant divide inline, and the
  register forms call the Machine's ``_div``/``_rem``;
* registers live in locals: one load per register read before it is
  written and one store per register written, register-0 reads are the
  literal ``0`` and register-0 writes are dropped;
* a load from an address the block stored or loaded since its last
  store reuses that value;
* the terminator appends the control-flow record and, in study mode,
  the block's :class:`~repro.trace.batch.StudyBatch` row: the
  registers loaded at entry are exactly its upward-exposed reads, and
  its static parts are constant tuples.

Compile time grows with the source and is most of what a translation
costs, so the source is terse: the run's state and the helpers are
globals of the namespace a block is compiled in.
"""

import math

from repro.cpu.machine import (
    BRANCH_CODES,
    C_ADD, C_AND, C_BEQ, C_BGE, C_BGT, C_BLE, C_BLT, C_BNE, C_CALL, C_DIV,
    C_DIVI, C_HALT, C_JMP, C_JR, C_LD, C_LI, C_MAX, C_MIN, C_MUL, C_MV,
    C_OR, C_REM, C_REMI, C_RET, C_SEQ, C_SLE, C_SLL, C_SLT, C_SLTI, C_SNE,
    C_SRA, C_SRL, C_ST, C_SUB, C_XOR,
    _IMM_TO_REG, _div, _rem, wrap64,
)
from repro.isa.instructions import InstrKind

#: Packed codes that end a block.
CONTROL_CODES = BRANCH_CODES | {C_JMP, C_JR, C_CALL, C_RET, C_HALT}

#: What :func:`translate` returns for a block that stays on the
#: per-instruction tier: one ending in ``halt`` (it runs once) or running
#: off the end of the program.  Its length never fits a budget.
COLD = (None, math.inf)

#: Packed control code -> the InstrKind value of its record.
KINDS = dict.fromkeys(BRANCH_CODES, int(InstrKind.BRANCH))
KINDS.update({C_JMP: int(InstrKind.JUMP), C_CALL: int(InstrKind.CALL),
              C_RET: int(InstrKind.RET), C_JR: int(InstrKind.IJUMP),
              C_HALT: int(InstrKind.HALT)})

#: ALU values over operand expressions ``{a}`` and ``{b}``; the forms in
#: ``_WRAPPED`` are range-checked with ``wrap64``.
_ALU_SOURCE = {
    C_ADD: "{a} + {b}", C_SUB: "{a} - {b}", C_MUL: "{a} * {b}",
    C_DIV: "_div({a}, {b})", C_REM: "_rem({a}, {b})",
    C_AND: "{a} & {b}", C_OR: "{a} | {b}", C_XOR: "{a} ^ {b}",
    C_SLL: "{a} << ({b} & 63)", C_SRA: "{a} >> ({b} & 63)",
    C_SRL: "({a} & %d) >> ({b} & 63)" % ((1 << 64) - 1),
    C_SLT: "1 if {a} < {b} else 0", C_SLE: "1 if {a} <= {b} else 0",
    C_SEQ: "1 if {a} == {b} else 0", C_SNE: "1 if {a} != {b} else 0",
    C_MIN: "{a} if {a} <= {b} else {b}", C_MAX: "{b} if {b} > {a} else {a}",
    # DIVI and REMI by a nonzero constant, keyed by the divisor's sign
    # (true when negative), over its magnitude {b}: _div's truncating
    # quotient and _rem's remainder without the call.
    (C_DIVI, False): "{a} // {b} if {a} >= 0 else -(-{a} // {b})",
    (C_DIVI, True): "-({a} // {b}) if {a} >= 0 else -{a} // {b}",
    (C_REMI, False): "{a} % {b} if {a} >= 0 else -(-{a} % {b})",
    (C_REMI, True): "{a} % {b} if {a} >= 0 else -(-{a} % {b})",
}
_WRAPPED = {C_ADD, C_SUB, C_MUL, C_SLL}
_COMPARE = {C_BEQ: "==", C_BNE: "!=", C_BLT: "<", C_BGE: ">=",
            C_BLE: "<=", C_BGT: ">"}

#: The helpers and bounds a block reads, beside the run's state.
HELPERS = {"wrap64": wrap64, "_div": _div, "_rem": _rem,
           "LO": -(1 << 63), "HI": (1 << 63) - 1}


def registers_accessed(code, rd, rs1, rs2):
    """``(reads, write)`` of one packed instruction for the study: the
    registers it reads, in operand order, and the one it writes, with
    register 0 left out of both (``write`` is then 0)."""
    if code <= C_MAX or code == C_ST or code in BRANCH_CODES:
        reads = (rs1, rs2)
    elif code <= C_SLTI or code in (C_MV, C_LD, C_JR):
        reads = (rs1,)
    else:
        reads = (1,) if code == C_RET else ()
    write = rd if code <= C_LD else int(code == C_CALL)
    return tuple(reg for reg in reads if reg), write


class _Block:
    """The source of one block's function."""

    def __init__(self, study):
        self.study = study
        self.current = {}   # register -> expression holding its value
        self.loads = []     # registers read before being written
        self.written = []
        self.memory = {}    # address expression -> value, since a store
        self.named = {}     # study: address expression -> its name
        self.ops = []       # study: load pc or -1 for a store, in order
        self.data = []      # study: their addresses and loaded values
        self.lines = []
        self.temps = 0

    def read(self, reg):
        if not reg:
            return "0"
        if reg not in self.current:
            self.current[reg] = "r%d" % reg
            self.loads.append(reg)
        return self.current[reg]

    def write(self, reg, expr):
        if reg:
            if reg not in self.written:
                self.written.append(reg)
            self.current[reg] = expr

    def value(self, expr, wraps=False):
        """A name or literal holding *expr*, range-checked if *wraps*."""
        if expr.isidentifier() or expr.lstrip("-").isdigit():
            return expr
        self.temps += 1
        name = "v%d" % self.temps
        self.lines.append("%s = %s" % (name, expr))
        if wraps:
            self.lines.append("if not LO <= {0} <= HI: {0} = wrap64({0})"
                              .format(name))
        return name

    def address(self, rs1, imm):
        base = self.read(rs1)
        if base == "0":
            return str(imm)
        if not imm:
            return base
        expr = "%s + %d" % (base, imm)
        if not self.study:
            return expr
        # The study row holds the address too: compute it once.  Its
        # operands are never rebound, so one name serves the block.
        name = self.named.get(expr)
        if name is None:
            name = self.named[expr] = self.value(expr)
        return name

    def straight(self, pc, instr):
        """Emit one non-control instruction."""
        code, rd, rs1, rs2, imm, _ = instr
        if code <= C_SLTI:
            a = self.read(rs1)
            if code <= C_MAX:
                form, b = code, self.read(rs2)
            elif imm and code in (C_DIVI, C_REMI):
                form, b = (code, imm < 0), abs(imm)
            else:
                form, b = _IMM_TO_REG[code], imm
            if rd:
                self.write(rd, self.value(_ALU_SOURCE[form].format(a=a, b=b),
                                          form in _WRAPPED))
        elif code == C_LI:
            self.write(rd, str(imm))
        elif code == C_MV:
            self.write(rd, self.read(rs1))
        elif code == C_LD and (rd or self.study):
            addr = self.address(rs1, imm)
            loaded = self.memory.get(addr)
            if loaded is None:
                loaded = self.memory[addr] = self.value(
                    "mem_get(%s, 0)" % addr)
            self.write(rd, loaded)
            self.ops.append(pc)
            self.data += (addr, loaded)
        elif code == C_ST:
            addr = self.address(rs1, imm)
            stored = self.read(rs2)
            self.lines.append("mem[%s] = %s" % (addr, stored))
            self.memory = {addr: stored}     # other cells may alias it
            self.ops.append(-1)
            self.data.append(addr)

    def terminator(self, pc, offset, instr):
        """Emit the control instruction at *offset* into the block:
        store the written registers, append the record (and the study
        row), return the next pc."""
        code, rd, rs1, rs2, imm, target = instr
        taken = "1"
        recorded = nxt = str(target)
        if code in BRANCH_CODES:
            taken = "t"
            self.lines.append("t = 1 if %s %s %s else 0" % (
                self.read(rs1), _COMPARE[code], self.read(rs2)))
            nxt = "%d if t else %d" % (target, pc + 1)
        elif code in (C_RET, C_JR):
            recorded = nxt = self.read(1 if code == C_RET else rs1)
        elif code == C_CALL:
            self.write(1, str(pc + 1))
        stores = ["regs[%d] = %s" % (reg, self.current[reg])
                  for reg in self.written
                  if self.current[reg] != "r%d" % reg]
        if stores:
            self.lines.append("; ".join(stores))
        end = "seq + %d" % offset if offset else "seq"
        self.lines.append("sq_a(%s); pc_a(%d); kd_a(%d); tk_a(%s); tg_a(%s)"
                          % (end, pc, KINDS[code], taken, recorded))
        if self.study:
            token = "%d + t" % (pc * 2) if taken == "t" else pc * 2 + 1
            info = (tuple(self.loads), tuple(self.current), tuple(self.ops))
            data = ["r%d" % reg for reg in self.loads] + self.data
            self.lines.append("row_a((%s, %r, (%s), %s))" % (
                end, info, "".join(item + ", " for item in data), token))
        self.lines.append("return " + nxt)
        if self.loads:
            self.lines.insert(0, "; ".join("r%d = regs[%d]" % (reg, reg)
                                           for reg in self.loads))
        return "def block(seq):\n    " + "\n    ".join(self.lines) + "\n"


def translate(packed, pc, study, namespace):
    """``(function, length)`` of the block entered at *pc*, compiled in
    *namespace* -- the run's ``regs``, ``mem``, ``mem_get``, the
    control-flow column appenders ``sq_a`` ... ``tg_a`` and, for the
    *study* mode, the row appender ``row_a`` beside :data:`HELPERS` --
    or :data:`COLD`."""
    end = pc
    while 0 <= end < len(packed) and packed[end][0] not in CONTROL_CODES:
        end += 1
    if pc < 0 or end == len(packed) or packed[end][0] == C_HALT:
        return COLD
    block = _Block(study)
    for at in range(pc, end):
        block.straight(at, packed[at])
    # Rebinding ``block`` keeps the namespace's keys, and so the global
    # lookups earlier blocks specialized on, stable.
    exec(compile(block.terminator(end, end - pc, packed[end]),
                 "<block %d>" % pc, "exec"), namespace)
    return namespace["block"], end - pc + 1
