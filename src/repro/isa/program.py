"""Program container: instructions, labels and initial data memory."""

from repro.isa.errors import ProgramError
from repro.isa.instructions import Instruction, Opcode


class DataSegment:
    """Initial contents of data memory.

    Data addresses live in a flat 64-bit space separate from instruction
    addresses (a Harvard layout keeps loop detection, which operates on
    instruction addresses only, independent from data placement).
    Symbols name the base addresses of allocated regions.
    """

    def __init__(self, base=0x10000):
        self.base = base
        self._next = base
        self.symbols = {}
        self.initial = {}

    def allocate(self, name, size, init=None):
        """Allocate *size* words under *name*; optionally initialize them.

        Returns the base address of the region.
        """
        if size <= 0:
            raise ProgramError("allocation %r must have positive size" % name)
        if name in self.symbols:
            raise ProgramError("duplicate data symbol %r" % name)
        addr = self._next
        self.symbols[name] = addr
        self._next += size
        if init is not None:
            values = list(init)
            if len(values) > size:
                raise ProgramError(
                    "initializer for %r longer than its %d words"
                    % (name, size))
            for offset, value in enumerate(values):
                self.initial[addr + offset] = int(value)
        return addr

    def address_of(self, name):
        try:
            return self.symbols[name]
        except KeyError:
            raise ProgramError("unknown data symbol %r" % name) from None


class Program:
    """An assembled program ready to run on :class:`repro.cpu.Machine`."""

    def __init__(self, name="program"):
        self.name = name
        self.instructions = []
        self.labels = {}
        self.data = DataSegment()
        self.entry = 0
        self._finalized = False
        self._memo = {}

    def __len__(self):
        return len(self.instructions)

    def label(self, name):
        """Define *name* at the current end of the instruction stream."""
        if name in self.labels:
            raise ProgramError("duplicate label %r" % name)
        self.labels[name] = len(self.instructions)
        self._finalized = False
        return self

    def emit(self, instruction):
        """Append one instruction; returns its address."""
        if not isinstance(instruction, Instruction):
            raise ProgramError("emit() expects an Instruction, got %r"
                               % (instruction,))
        addr = len(self.instructions)
        self.instructions.append(instruction)
        self._finalized = False
        return addr

    def address_of(self, label):
        try:
            return self.labels[label]
        except KeyError:
            raise ProgramError("unknown label %r" % label) from None

    def set_entry(self, label_or_addr):
        if isinstance(label_or_addr, str):
            self.entry = self.address_of(label_or_addr)
        else:
            self.entry = int(label_or_addr)
        self._finalized = False
        return self

    def memoized(self, key, compute):
        """``compute(self)``, once per finalization (the packed form and
        the fingerprint): :meth:`emit`, :meth:`label` and
        :meth:`set_entry` make the next call re-finalize and recompute."""
        self.finalize()
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    def finalize(self):
        """Resolve labels to absolute targets and validate the program."""
        if self._finalized:
            return self
        if not self.instructions:
            raise ProgramError("program %r has no instructions" % self.name)
        for pc, instr in enumerate(self.instructions):
            if instr.label is not None:
                if instr.label not in self.labels:
                    raise ProgramError(
                        "unresolved label %r at pc %d" % (instr.label, pc))
                instr.target = self.labels[instr.label]
            instr.validate()
            if instr.target is not None and not (
                    0 <= instr.target < len(self.instructions)):
                raise ProgramError(
                    "target %d of pc %d out of range" % (instr.target, pc))
        if not 0 <= self.entry < len(self.instructions):
            raise ProgramError("entry point %d out of range" % self.entry)
        if not any(i.op is Opcode.HALT for i in self.instructions):
            raise ProgramError("program %r never halts" % self.name)
        self._memo = {}
        self._finalized = True
        return self
