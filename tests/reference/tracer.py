"""Machine-stepped tracing: the reference for the tiered loop behind
:class:`repro.cpu.tracer.ChunkedCFTracer` and
:class:`repro.cpu.tracer.ChunkedFullTracer`.

:class:`repro.cpu.machine.Machine` runs one instruction at a time.  The
effects of each are read off the decoded
:class:`~repro.isa.instructions.Instruction` and the machine state
before the step: no packed program, no translation, and no opcode
table shared with the tracers.  For the study tracer the steps are
regrouped into blocks, each ending at a control instruction, and each
block into its :class:`~repro.trace.batch.StudyBatch` row.  Batching
follows the tracers' contract: a full control-flow batch goes out when
another instruction is about to run, a study batch once it covers
``chunk_size`` instructions and another block is about to run, and a
trace that exceeds its budget with ``allow_truncation=False`` raises
:class:`~repro.cpu.tracer.TraceBudgetExceeded` before its last batch.
"""

import operator

from repro.cpu import Machine
from repro.cpu.tracer import TraceBudgetExceeded
from repro.isa.instructions import (
    ALU_IMM_OPS,
    ALU_OPS,
    BRANCH_OPS,
    InstrKind,
    Opcode,
)
from repro.trace.batch import NO_TARGET, StudyBatch

from records import batch_of

_COMPARE = {
    Opcode.BEQ: operator.eq, Opcode.BNE: operator.ne,
    Opcode.BLT: operator.lt, Opcode.BGE: operator.ge,
    Opcode.BLE: operator.le, Opcode.BGT: operator.gt,
}

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
    rr1, rv1, rr2, rv2, wr, mra, mrv, mwa)``: the registers read and
    their values, the register written, the load address and value and
    the store address (register 0 and empty slots read ``-1``/``0``,
    an absent memory access ``None``)."""
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


def study_row(steps):
    """The :class:`StudyBatch` row of one block's :func:`step` rows."""
    touched = {}
    exposed = []
    values = []
    ops = []
    memory = []
    for (_, pc, _, _, _, rr1, rv1, rr2, rv2, wr, mra, mrv,
         mwa) in steps:
        for reg, value in ((rr1, rv1), (rr2, rv2)):
            if reg != -1 and reg not in touched:
                touched[reg] = True
                exposed.append(reg)
                values.append(value)
        if wr != -1 and wr not in touched:
            touched[wr] = True
        if mra is not None:
            ops.append(pc)
            memory.extend((mra, mrv))
        if mwa is not None:
            ops.append(-1)
            memory.append(mwa)
    end, pc, kind, taken = steps[-1][:4]
    token = None if kind == InstrKind.OTHER else pc * 2 + taken
    return (end, (tuple(exposed), tuple(touched), tuple(ops)),
            tuple(values + memory), token)


class ReferenceTracer:
    """The Machine-stepped twin of both chunked tracers: control-flow
    :class:`RecordBatch` columns, or with *full* the study tracer's
    :class:`StudyBatch` rows."""

    def __init__(self, program, max_instructions, allow_truncation=True,
                 chunk_size=65536, full=False):
        self.program = program
        self.max_instructions = max_instructions
        self.allow_truncation = allow_truncation
        self.chunk_size = chunk_size
        self.full = full
        self.total_instructions = None
        self.halted = None

    def batches(self):
        return self._study() if self.full else self._control_flow()

    def _control_flow(self):
        machine = Machine(self.program)
        chunk = self.chunk_size
        rows = []
        while (machine.instruction_count < self.max_instructions
               and not machine.halted):
            if len(rows) >= chunk:
                yield batch_of(rows[:chunk])
                del rows[:chunk]
            row = step(machine)
            if row[2] != InstrKind.OTHER:
                rows.append(row)
        self._finish(machine)
        if rows:
            yield batch_of(rows)

    def _study(self):
        machine = Machine(self.program)
        block = []          # the current block's steps
        blocks = []         # the pending batch's blocks
        start = 0           # the pending batch's first seq
        while (machine.instruction_count < self.max_instructions
               and not machine.halted):
            seq = machine.instruction_count
            if not block and seq - start >= self.chunk_size:
                yield self._study_batch(start, seq, blocks)
                start, blocks = seq, []
            block.append(step(machine))
            if block[-1][2] != InstrKind.OTHER:
                blocks.append(block)
                block = []
        self._finish(machine)
        if block:
            blocks.append(block)
        if blocks:
            yield self._study_batch(start, machine.instruction_count,
                                    blocks)

    def _study_batch(self, start, stop, blocks):
        return StudyBatch(start, stop - start, batch_of(
            [block[-1] for block in blocks
             if block[-1][2] != InstrKind.OTHER]),
            [study_row(block) for block in blocks])

    def _finish(self, machine):
        self.total_instructions = machine.instruction_count
        self.halted = machine.halted
        if not self.halted and not self.allow_truncation:
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (self.program.name, self.max_instructions))


def outcome(tracer):
    """What a differential test compares: every batch's columns as
    lists, then ``(total_instructions, halted)``, or ``"raised"`` when
    the budget ran out with ``allow_truncation=False``."""
    batches = []
    try:
        for batch in tracer.batches():
            if isinstance(batch, StudyBatch):
                batches.append([batch.start_seq, len(batch), batch.rows]
                               + [list(getattr(batch.control, name))
                                  for name in _CF_COLUMNS])
            else:
                batches.append([list(getattr(batch, name))
                                for name in _CF_COLUMNS])
    except TraceBudgetExceeded:
        return batches, "raised"
    return batches, (tracer.total_instructions, tracer.halted)
