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
* full effects (:class:`ChunkedFullTracer`): every instruction's
  register and memory effects fill :class:`~repro.trace.batch.
  FullBatch` slots, for the data-speculation study.

Two slower loops stay as references that the differential tests pin the
tiered loop against: :class:`repro.cpu.machine.Machine`, the readable
instruction-by-instruction interpreter, and :func:`trace_full`, which
builds :class:`~repro.trace.record.FullRecord` tuples with everything
:class:`~repro.trace.batch.FullBatch` leaves out (register-write
values, register-0 effects).
"""

from array import array
from collections import deque

from repro.cpu.machine import (
    BRANCH_CODES,
    C_ADDI, C_CALL, C_HALT, C_JR, C_LD, C_LI, C_MAX, C_MV, C_NOP, C_RET,
    C_SLTI, C_ST,
    STACK_TOP,
    _ALU, _BRANCH, _IMM_TO_REG,
    packed_form, wrap64,
)
from repro.cpu.translate import (
    COLD, FULL_COLUMNS, HELPERS, KINDS, effect_slots, translate,
)
from repro.isa.errors import ProgramError
from repro.isa.instructions import InstrKind
from repro.isa.registers import NUM_REGISTERS, REG_SP
from repro.obs import collector as obs
from repro.trace.batch import NO_TARGET, FullBatch, RecordBatch
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

#: The control-flow appenders of the full-effects mode: its takens and
#: targets slots carry the control transfers, so these discard.
_DISCARD = deque(maxlen=0).append


class TraceBudgetExceeded(ProgramError):
    """Raised when a program does not halt within the instruction budget
    and ``allow_truncation`` is False."""


class _Columns:
    """A run's output: :class:`RecordBatch` columns, or with *full*
    one list per :class:`FullBatch` slot."""

    def __init__(self, full):
        self.full = full
        self.start_seq = 0
        if full:
            self.columns = tuple([] for _ in FULL_COLUMNS)
            self.names = [name + "_e" for name in FULL_COLUMNS]
            self.appenders = [column.extend for column in self.columns]
        else:
            self.columns = tuple(array(code) for code in "qqbbq")
            self.names = ["sq_a", "pc_a", "kd_a", "tk_a", "tg_a"]
            self.appenders = [column.append for column in self.columns]

    def take(self, count):
        """The first *count* rows as one batch."""
        parts = [column[:count] for column in self.columns]
        for column in self.columns:
            del column[:count]
        if not self.full:
            return RecordBatch(*parts)
        self.start_seq += count
        return FullBatch(self.start_seq - count, *parts)


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

    def _run(self, full):
        """Generate batches of at most ``chunk_size`` rows: control
        transfers, or every instruction's effects when *full*."""
        program = self.program
        chunk = self.chunk_size
        limit = self.max_instructions
        hot_entries = HOT_ENTRIES
        packed = packed_form(program)
        regs = [0] * NUM_REGISTERS
        regs[REG_SP] = STACK_TOP
        mem = dict(program.data.initial)
        mem_get = mem.get
        out = _Columns(full)
        rows = out.columns[0]
        namespace = dict(zip(out.names, out.appenders), regs=regs,
                         mem=mem, mem_get=mem_get, **HELPERS)
        translated = 0
        blocks = {}
        blocks_get = blocks.get
        entries = {}
        entries_get = entries.get
        if full:
            slots = [effect_slots(*instr) for instr in packed]
            (f_pc, f_kind, f_tk, f_tg, f_rr1, f_rv1, f_rr2, f_rv2, f_wr,
             f_mra, f_mrv, f_mwa) = [column.append
                                     for column in out.columns]
            sq_a = pc_a = kd_a = tk_a = tg_a = _DISCARD
        else:
            sq_a, pc_a, kd_a, tk_a, tg_a = out.appenders
        alu = _ALU
        branch = _BRANCH
        kinds = KINDS
        pc = program.entry
        seq = 0
        cold = 0
        halted = False

        while seq < limit:
            while len(rows) >= chunk:
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
                    blocks[pc] = block = translate(packed, pc, full,
                                                   namespace)
                    translated += block is not COLD
                    continue
            # The per-instruction tier, to the end of the block or of
            # the budget.
            start = seq
            while True:
                code, rd, rs1, rs2, imm, target = packed[pc]
                if full:
                    while len(rows) >= chunk:
                        yield out.take(chunk)
                    kind, read1, read2, wr, taken, to = slots[pc]
                    a = regs[read1]
                    b = regs[read2]
                    f_pc(pc)
                    f_kind(kind)
                    if taken is None:
                        taken = 1 if branch[code](a, b) else 0
                    f_tk(taken)
                    f_tg(a if to is None else to)
                    f_rr1(read1 or -1)
                    f_rv1(a)
                    f_rr2(read2 or -1)
                    f_rv2(b)
                    f_wr(wr)
                    if code == C_LD:
                        f_mra(a + imm)
                        f_mrv(mem_get(a + imm, 0))
                        f_mwa(None)
                    else:
                        f_mra(None)
                        f_mrv(None)
                        f_mwa(a + imm if code == C_ST else None)
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
                elif code in BRANCH_CODES:
                    taken = branch[code](regs[rs1], regs[rs2])
                    sq_a(seq)
                    pc_a(pc)
                    kd_a(_K_BRANCH)
                    tk_a(1 if taken else 0)
                    tg_a(target)
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
                    pc = nxt
                    seq += 1
                    break
                seq += 1
                if seq >= limit:
                    break
            cold += seq - start
            if halted:
                break

        namespace.clear()   # the translations and their globals
        obs.add("cpu.blocks_translated", translated)
        obs.add("cpu.cold_instructions", cold)
        if not halted and not self.allow_truncation:
            # Only the batches the budget's last instruction did not
            # complete went out before it.
            while len(rows) > chunk:
                yield out.take(chunk)
            raise TraceBudgetExceeded(
                "program %r did not halt within %d instructions"
                % (program.name, limit))
        while len(rows):
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
        at most ``chunk_size`` records, in execution order.

        The loop appends directly to the batch columns: no
        :class:`~repro.trace.record.CFRecord` is constructed between
        the machine and a batch consumer.
        """
        return self._run(full=False)


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
    """Full-effects tracing with bounded-memory columnar emission.

    :meth:`batches` hands out :class:`~repro.trace.batch.FullBatch`
    columns of at most ``chunk_size`` instructions: per instruction the
    fixed effect slots (two register reads, one register write, one
    memory access -- see :class:`FullBatch`), so the data-speculation
    study streams a workload's architectural effects without
    materializing millions of nested tuples.  Equivalence with
    :func:`trace_full` is pinned by tests.

    Reads of (and writes to) register 0 are not emitted -- the zero
    register is never a live-in and its writes are discarded.
    """

    DEFAULT_CHUNK = 32768

    def __init__(self, program, max_instructions=1_000_000,
                 allow_truncation=True, chunk_size=DEFAULT_CHUNK):
        super().__init__(program, max_instructions, allow_truncation,
                         chunk_size)

    def batches(self):
        """Generate :class:`FullBatch` columns of at most ``chunk_size``
        instructions, in execution order."""
        return self._run(full=True)
