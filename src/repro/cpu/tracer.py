"""Tracing interpreters: one tiered loop with two emission modes.

:meth:`ChunkedCFTracer.batches` and :meth:`ChunkedFullTracer.batches`
run one loop over the packed program
(:func:`~repro.cpu.machine.packed_form`).  It dispatches once per basic
block -- the straight-line run from an entry pc to its first control
instruction -- in two tiers:

* a block's first entries run the per-instruction chain, one
  ``if``/``elif`` walk per instruction;
* on its :data:`HOT_ENTRIES`-th entry the block is translated
  (:mod:`repro.cpu.translate`) into one Python function, and every
  later entry is one call.

The chain also runs a hot block that would overrun the instruction
budget, so budgets and batch boundaries are exact.  Translations live
for one run; nothing is kept across runs or on the program.

The two emission modes:

* control flow (:class:`ChunkedCFTracer`): every control transfer is
  appended to :class:`~repro.trace.batch.RecordBatch` columns, the
  input to loop detection and thread speculation.
  :meth:`ChunkedCFTracer.columns` and :func:`trace_control_flow` keep
  them as a :class:`~repro.trace.stream.CFTrace`;
* study (:class:`ChunkedFullTracer`): the control transfers as above
  plus one :class:`~repro.trace.batch.StudyBatch` row per executed
  block -- its upward-exposed register reads, the registers it
  touches, its loads and stores -- for the data-speculation study.
  Per-instruction effects are never emitted: nothing else in a block
  can capture a loop iteration's live-in.

Two slower loops stay as references that the differential tests pin the
tiered loop against: :class:`repro.cpu.machine.Machine`, the readable
instruction-by-instruction interpreter, and :func:`trace_full`, which
builds a :class:`~repro.trace.record.FullRecord` per instruction with
every register and memory effect and its value.
"""

from array import array

from repro.cpu.machine import (
    BRANCH_CODES,
    C_ADDI, C_ANDI, C_CALL, C_HALT, C_JR, C_LD, C_LI, C_MAX, C_MV, C_NOP,
    C_REMI, C_RET, C_SLTI, C_ST,
    STACK_TOP,
    _ALU, _BRANCH, _IMM_TO_REG,
    packed_form, wrap64,
)
from repro.cpu.translate import (
    COLD, HELPERS, KINDS, registers_accessed, translate,
)
from repro.isa.errors import ProgramError
from repro.isa.instructions import InstrKind
from repro.isa.registers import NUM_REGISTERS, REG_SP
from repro.obs import collector as obs
from repro.trace.batch import NO_TARGET, RecordBatch, StudyBatch
from repro.trace.io import TRACE_FORMAT_VERSION, TraceHeader
from repro.trace.record import FullRecord
from repro.trace.stream import CFTrace, FullTrace

_K_BRANCH = int(InstrKind.BRANCH)

_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)

#: A block is translated on its HOT_ENTRIES-th entry; earlier entries
#: run the per-instruction chain.  Compiling a block costs about 0.3 ms,
#: which a block entered a handful of times never earns back, and most
#: blocks of a short-lived program are (docs/PERFORMANCE.md has the
#: threshold sweep).
HOT_ENTRIES = 32

class TraceBudgetExceeded(ProgramError):
    """Raised when a program does not halt within the instruction budget
    and ``allow_truncation`` is False."""


class _Columns:
    """A run's output: :class:`RecordBatch` columns and, in the study
    mode, the :class:`StudyBatch` rows beside them."""

    def __init__(self):
        self.columns = tuple(array(code) for code in "qqbbq")
        self.rows = []
        self.start_seq = 0
        #: The names translated blocks append through.
        self.appenders = {name: column.append for name, column in zip(
            ("sq_a", "pc_a", "kd_a", "tk_a", "tg_a"), self.columns)}
        self.appenders["row_a"] = self.rows.append

    def take(self, count):
        """The first *count* control records as one batch."""
        parts = [column[:count] for column in self.columns]
        for column in self.columns:
            del column[:count]
        return RecordBatch(*parts)

    def take_study(self, seq):
        """Every row so far, the blocks that ran up to *seq*, as one
        batch."""
        control = self.take(len(self.columns[0]))
        batch = StudyBatch(self.start_seq, seq - self.start_seq, control,
                           self.rows[:])
        self.rows.clear()
        self.start_seq = seq
        return batch


class _TieredTracer:
    """The tiered loop shared by both tracers.

    ``total_instructions`` and ``halted`` are only valid once the
    generator is exhausted; reading them earlier raises
    :class:`RuntimeError`.
    """

    def __init__(self, program, max_instructions, allow_truncation,
                 chunk_size):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.program = program
        self.program_name = program.name
        self.max_instructions = max_instructions
        self.allow_truncation = allow_truncation
        self.chunk_size = chunk_size
        self._finished = False
        self._total = None
        self._halted = None

    @property
    def total_instructions(self):
        if not self._finished:
            raise RuntimeError("trace not finished; exhaust batches() first")
        return self._total

    @property
    def halted(self):
        if not self._finished:
            raise RuntimeError("trace not finished; exhaust batches() first")
        return self._halted

    def _run(self, study):
        """Generate batches: :class:`RecordBatch` columns of at most
        ``chunk_size`` control records or, with *study*,
        :class:`StudyBatch` rows of whole blocks, each batch going out
        once it covers ``chunk_size`` instructions."""
        program = self.program
        chunk = self.chunk_size
        limit = self.max_instructions
        hot_entries = HOT_ENTRIES
        packed = packed_form(program)
        regs = [0] * NUM_REGISTERS
        regs[REG_SP] = STACK_TOP
        mem = dict(program.data.initial)
        mem_get = mem.get
        out = _Columns()
        records = out.columns[0]
        namespace = dict(out.appenders, regs=regs, mem=mem,
                         mem_get=mem_get, **HELPERS)
        sq_a, pc_a, kd_a, tk_a, tg_a, row_a = out.appenders.values()
        translated = 0
        blocks = {}
        blocks_get = blocks.get
        entries = {}
        entries_get = entries.get
        if study:
            accessed = [registers_accessed(*instr[:4]) for instr in packed]
        alu = _ALU
        branch = _BRANCH
        kinds = KINDS
        pc = program.entry
        seq = 0
        cold = 0
        halted = False

        while seq < limit:
            if study:
                if seq - out.start_seq >= chunk:
                    yield out.take_study(seq)
            elif len(records) >= chunk:
                yield out.take(chunk)
            block = blocks_get(pc)
            if block is not None:
                run, length = block
                if seq + length <= limit:
                    pc = run(seq)
                    seq += length
                    continue
            else:
                entries[pc] = count = entries_get(pc, 0) + 1
                if count >= hot_entries:
                    blocks[pc] = block = translate(packed, pc, study,
                                                   namespace)
                    translated += block is not COLD
                    continue
            # The per-instruction tier, to the end of the block or of
            # the budget.
            start = seq
            if study:
                touched = {}
                exposed = []
                ops = []
                data = []
                memory = []
                token = None
            while True:
                code, rd, rs1, rs2, imm, target = packed[pc]
                if study:
                    reads, written = accessed[pc]
                    for reg in reads:
                        if reg not in touched:
                            touched[reg] = None
                            exposed.append(reg)
                            data.append(regs[reg])
                    if written:
                        touched.setdefault(written)
                    if code == C_LD:
                        addr = regs[rs1] + imm
                        ops.append(pc)
                        memory += (addr, mem_get(addr, 0))
                    elif code == C_ST:
                        ops.append(-1)
                        memory.append(regs[rs1] + imm)
                if code == C_ADDI:
                    v = regs[rs1] + imm
                    if v > _I64_MAX or v < _I64_MIN:
                        v = wrap64(v)
                    if rd:
                        regs[rd] = v
                    pc += 1
                elif code == C_LD:
                    if rd:
                        regs[rd] = mem_get(regs[rs1] + imm, 0)
                    pc += 1
                elif code == C_ST:
                    mem[regs[rs1] + imm] = regs[rs2]
                    pc += 1
                elif code == C_ANDI:
                    if rd:
                        regs[rd] = regs[rs1] & imm
                    pc += 1
                elif code == C_REMI and imm:
                    # _rem by a nonzero constant, inline as in translated
                    # blocks.
                    if rd:
                        v = regs[rs1]
                        m = imm if imm > 0 else -imm
                        regs[rd] = v % m if v >= 0 else -(-v % m)
                    pc += 1
                elif code in BRANCH_CODES:
                    taken = 1 if branch[code](regs[rs1], regs[rs2]) else 0
                    sq_a(seq)
                    pc_a(pc)
                    kd_a(_K_BRANCH)
                    tk_a(taken)
                    tg_a(target)
                    token = pc * 2 + taken
                    pc = target if taken else pc + 1
                    seq += 1
                    break
                elif code == C_LI:
                    if rd:
                        regs[rd] = imm
                    pc += 1
                elif code == C_MV:
                    if rd:
                        regs[rd] = regs[rs1]
                    pc += 1
                elif code <= C_SLTI:
                    # The other ALU forms, via the tables.
                    if code > C_MAX:
                        v = alu[_IMM_TO_REG[code]](regs[rs1], imm)
                    else:
                        v = alu[code](regs[rs1], regs[rs2])
                    if rd:
                        regs[rd] = v
                    pc += 1
                elif code == C_NOP:
                    pc += 1
                else:
                    # jmp, jr, call, ret, halt
                    if code == C_RET:
                        nxt = regs[1]
                    elif code == C_JR:
                        nxt = regs[rs1]
                    elif code == C_HALT:
                        nxt = NO_TARGET
                        halted = True
                    else:
                        nxt = target
                        if code == C_CALL:
                            regs[1] = pc + 1
                    sq_a(seq)
                    pc_a(pc)
                    kd_a(kinds[code])
                    tk_a(0 if halted else 1)
                    tg_a(nxt)
                    token = pc * 2 + (0 if halted else 1)
                    pc = nxt
                    seq += 1
                    break
                seq += 1
                if seq >= limit:
                    break
            cold += seq - start
            if study:
                row_a((seq - 1, (tuple(exposed), tuple(touched), tuple(ops)),
                       tuple(data + memory), token))
            if halted:
                break

        namespace.clear()   # the translations and their globals
        obs.add("cpu.blocks_translated", translated)
        obs.add("cpu.cold_instructions", cold)
        if not halted and not self.allow_truncation:
            # The batches the budget's last instruction completed have
            # gone out; the rest go with the run.
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (program.name, limit))
        if study:
            if seq > out.start_seq:
                yield out.take_study(seq)
        else:
            while len(records):
                yield out.take(chunk)
        self._total = seq
        self._halted = halted
        self._finished = True


class ChunkedCFTracer(_TieredTracer):
    """The control-flow tracer, emitting bounded column batches.

    :meth:`batches` hands out :class:`~repro.trace.batch.RecordBatch`
    columns of at most ``chunk_size`` records, so a streaming consumer
    (the v3 cache writer, the loop detector's ``feed_batch``) never
    holds the whole trace; :meth:`columns` runs to completion and keeps
    them.
    """

    DEFAULT_CHUNK = 65536

    def __init__(self, program, max_instructions=5_000_000,
                 allow_truncation=True, chunk_size=DEFAULT_CHUNK):
        super().__init__(program, max_instructions, allow_truncation,
                         chunk_size)

    def columns(self):
        """Trace to completion and keep the columns: a
        :class:`~repro.trace.stream.CFTrace`."""
        batches = list(self.batches())
        return CFTrace(TraceHeader(TRACE_FORMAT_VERSION, self.program_name,
                                   self.total_instructions, self.halted,
                                   sum(map(len, batches))), batches)

    def batches(self):
        """Generate :class:`~repro.trace.batch.RecordBatch` columns of
        at most ``chunk_size`` records, in execution order; the loop
        appends directly to the batch columns.
        """
        return self._run(study=False)


def trace_control_flow(program, max_instructions=5_000_000,
                       allow_truncation=True):
    """Run *program* and return its control-flow trace, a
    :class:`~repro.trace.stream.CFTrace` (see
    :meth:`ChunkedCFTracer.columns`).  When the budget is exhausted
    before ``halt`` the trace is returned truncated (``trace.halted`` is
    False) unless *allow_truncation* is False, in which case
    :class:`TraceBudgetExceeded` is raised.
    """
    return ChunkedCFTracer(program, max_instructions,
                           allow_truncation).columns()


def trace_full(program, max_instructions=1_000_000, allow_truncation=True):
    """Run *program* recording every instruction's architectural effects."""
    packed = packed_form(program)
    regs = [0] * NUM_REGISTERS
    regs[REG_SP] = STACK_TOP
    mem = dict(program.data.initial)
    mem_get = mem.get
    records = []
    append = records.append
    pc = program.entry
    seq = 0
    halted = False
    alu = _ALU
    branch = _BRANCH
    empty = ()
    k_other = int(InstrKind.OTHER)

    while seq < max_instructions:
        code, rd, rs1, rs2, imm, target = packed[pc]
        if code <= C_MAX:  # three-register ALU block
            a = regs[rs1]
            b = regs[rs2]
            v = alu[code](a, b)
            if rd:
                regs[rd] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, a), (rs2, b)), ((rd, v),), empty,
                              empty))
            pc += 1
        elif code <= C_SLTI:  # immediate ALU block
            a = regs[rs1]
            v = alu[_IMM_TO_REG[code]](a, imm)
            if rd:
                regs[rd] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, a),), ((rd, v),), empty, empty))
            pc += 1
        elif code == C_LI:
            if rd:
                regs[rd] = imm
            append(FullRecord(seq, pc, k_other, False, None,
                              empty, ((rd, imm),), empty, empty))
            pc += 1
        elif code == C_MV:
            a = regs[rs1]
            if rd:
                regs[rd] = a
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, a),), ((rd, a),), empty, empty))
            pc += 1
        elif code == C_LD:
            base = regs[rs1]
            addr = base + imm
            v = mem_get(addr, 0)
            if rd:
                regs[rd] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, base),), ((rd, v),), ((addr, v),),
                              empty))
            pc += 1
        elif code == C_ST:
            base = regs[rs1]
            addr = base + imm
            v = regs[rs2]
            mem[addr] = v
            append(FullRecord(seq, pc, k_other, False, None,
                              ((rs1, base), (rs2, v)), empty, empty,
                              ((addr, v),)))
            pc += 1
        elif code in BRANCH_CODES:
            a = regs[rs1]
            b = regs[rs2]
            taken = branch[code](a, b)
            append(FullRecord(seq, pc, _K_BRANCH, taken, target,
                              ((rs1, a), (rs2, b)), empty, empty, empty))
            pc = target if taken else pc + 1
        elif code == C_NOP or code == C_HALT:
            append(FullRecord(seq, pc, KINDS.get(code, k_other), False,
                              None, empty, empty, empty, empty))
            pc += 1
            if code == C_HALT:
                seq += 1
                halted = True
                break
        else:  # jmp, jr, call, ret
            reads = writes = empty
            nxt = target
            if code == C_RET:
                nxt = regs[1]
                reads = ((1, nxt),)
            elif code == C_JR:
                nxt = regs[rs1]
                reads = ((rs1, nxt),)
            elif code == C_CALL:
                regs[1] = pc + 1
                writes = ((1, pc + 1),)
            append(FullRecord(seq, pc, KINDS[code], True, nxt, reads,
                              writes, empty, empty))
            pc = nxt
        seq += 1

    if not halted and not allow_truncation:
        raise TraceBudgetExceeded(
            "program %r did not halt within %d instructions"
            % (program.name, max_instructions))
    return FullTrace(records=records, total_instructions=seq, halted=halted,
                     program_name=program.name)


class ChunkedFullTracer(_TieredTracer):
    """The data-speculation study's tracer: block rows, not
    per-instruction effects.

    :meth:`batches` hands out :class:`~repro.trace.batch.StudyBatch`
    rows, one per executed block, in batches covering at least
    ``chunk_size`` instructions (a block is never split), so the study
    streams a workload without materializing its full trace.
    Equivalence with :func:`trace_full` and the Machine-stepped
    reference is pinned by tests.
    """

    DEFAULT_CHUNK = 32768

    def __init__(self, program, max_instructions=1_000_000,
                 allow_truncation=True, chunk_size=DEFAULT_CHUNK):
        super().__init__(program, max_instructions, allow_truncation,
                         chunk_size)

    def batches(self):
        """Generate :class:`StudyBatch` rows in execution order; each
        batch's ``len()`` is the instructions its blocks cover."""
        return self._run(study=True)
