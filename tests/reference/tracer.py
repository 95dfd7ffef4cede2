"""Machine-stepped tracing: the reference for the tiered loop behind
:class:`repro.cpu.tracer.ChunkedCFTracer` and
:class:`repro.cpu.tracer.ChunkedFullTracer`.

:class:`repro.cpu.machine.Machine` runs one instruction at a time.  The
effects of each are read off the decoded
:class:`~repro.isa.instructions.Instruction` and the machine state
before the step: no packed program, no translation, and no opcode
table shared with the tracers.  Batching follows the tracers' contract:
a full batch goes out when another instruction is about to run, and a
trace that exceeds its budget with ``allow_truncation=False`` raises
:class:`~repro.cpu.tracer.TraceBudgetExceeded` before its last batch.
"""

import operator
from array import array

from repro.cpu import Machine
from repro.cpu.tracer import TraceBudgetExceeded
from repro.isa.instructions import (
    ALU_IMM_OPS,
    ALU_OPS,
    BRANCH_OPS,
    InstrKind,
    Opcode,
)
from repro.trace.batch import NO_TARGET, FullBatch, RecordBatch

_COMPARE = {
    Opcode.BEQ: operator.eq, Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt, Opcode.BGE: operator.ge,
    Opcode.BLE: operator.le, Opcode.BGT: operator.gt,
}

_FULL_SLOTS = ("pcs", "kinds", "takens", "targets", "rr1", "rv1", "rr2",
               "rv2", "wr", "mra", "mrv", "mwa")
_CF_COLUMNS = ("seqs", "pcs", "kinds", "takens", "targets")

_WRITES_RD = ALU_OPS | ALU_IMM_OPS | {Opcode.LI, Opcode.MV, Opcode.LD}


def _registers_read(instr):
    op = instr.op
    if op in ALU_OPS or op in BRANCH_OPS or op is Opcode.ST:
        return [instr.rs1, instr.rs2]
    if op in ALU_IMM_OPS or op in (Opcode.MV, Opcode.LD, Opcode.JR):
        return [instr.rs1]
    if op is Opcode.RET:
        return [1]
    return []


def step(machine):
    """Run one instruction; its row ``(seq, pc, kind, taken, target,
    rr1, rv1, rr2, rv2, wr, mra, mrv, mwa)`` in the FullBatch slot
    conventions (register 0 and empty slots read ``-1``/``0``)."""
    seq = machine.instruction_count
    pc = machine.pc
    instr = machine.program.instructions[pc]
    op = instr.op
    reads = [(reg if reg else -1, machine.read_reg(reg))
             for reg in _registers_read(instr)]
    reads += [(-1, 0)] * (2 - len(reads))
    if op in _WRITES_RD:
        written = instr.rd if instr.rd else -1
    else:
        written = 1 if op is Opcode.CALL else -1
    mra = mrv = mwa = None
    if op is Opcode.LD:
        mra = machine.read_reg(instr.rs1) + instr.imm
        mrv = machine.memory.load(mra)
    elif op is Opcode.ST:
        mwa = machine.read_reg(instr.rs1) + instr.imm
    machine.step()
    kind = instr.kind
    if kind is InstrKind.BRANCH:
        taken = _COMPARE[op](reads[0][1], reads[1][1])
        target = instr.target
    elif kind in (InstrKind.JUMP, InstrKind.CALL):
        taken, target = True, instr.target
    elif kind in (InstrKind.RET, InstrKind.IJUMP):
        taken, target = True, machine.pc
    else:
        taken, target = False, NO_TARGET
    return (seq, pc, int(kind), int(taken), target, reads[0][0],
            reads[0][1], reads[1][0], reads[1][1], written, mra, mrv, mwa)


class ReferenceTracer:
    """The Machine-stepped twin of both chunked tracers: control-flow
    :class:`RecordBatch` columns, or with *full* every instruction's
    :class:`FullBatch` slots."""

    def __init__(self, program, max_instructions, allow_truncation=True,
                 chunk_size=65536, full=False):
        self.program = program
        self.max_instructions = max_instructions
        self.allow_truncation = allow_truncation
        self.chunk_size = chunk_size
        self.full = full
        self.total_instructions = None
        self.halted = None

    def _batch(self, rows):
        columns = list(zip(*rows))
        if self.full:
            return FullBatch(rows[0][0], *(list(c) for c in columns[1:]))
        return RecordBatch(*(array(code, column) for code, column
                             in zip("qqbbq", columns[:5])))

    def batches(self):
        machine = Machine(self.program)
        chunk = self.chunk_size
        rows = []
        while (machine.instruction_count < self.max_instructions
               and not machine.halted):
            if len(rows) >= chunk:
                yield self._batch(rows[:chunk])
                del rows[:chunk]
            row = step(machine)
            if self.full or row[2] != InstrKind.OTHER:
                rows.append(row)
        self.total_instructions = machine.instruction_count
        self.halted = machine.halted
        if not self.halted and not self.allow_truncation:
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (self.program.name, self.max_instructions))
        if rows:
            yield self._batch(rows)


def outcome(tracer):
    """What a differential test compares: every batch's columns as
    lists, then ``(total_instructions, halted)``, or ``"raised"`` when
    the budget ran out with ``allow_truncation=False``."""
    batches = []
    try:
        for batch in tracer.batches():
            if isinstance(batch, FullBatch):
                batches.append([batch.start_seq] + [
                    list(getattr(batch, name)) for name in _FULL_SLOTS])
            else:
                batches.append([list(getattr(batch, name))
                                for name in _CF_COLUMNS])
    except TraceBudgetExceeded:
        return batches, "raised"
    return batches, (tracer.total_instructions, tracer.halted)
