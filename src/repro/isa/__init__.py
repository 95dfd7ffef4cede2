"""A small RISC instruction set used as the tracing substrate.

The paper instruments DEC Alpha binaries with ATOM; everything its
mechanisms consume is the *dynamic instruction stream* (program counters
and the outcome of control transfers, plus register/memory accesses for
the data-speculation study).  Any ISA with backward branches, direct and
indirect jumps, calls and returns exercises exactly the same code paths,
so we define a compact register machine here and interpret it with
:mod:`repro.cpu`.

Public surface:

* :class:`Instruction`, :class:`Opcode`, :class:`InstrKind` -- instruction
  representation and classification.
* :class:`Program` -- a program (instructions + labels + data), built
  by the :mod:`repro.lang` compiler.
* :data:`registers` helpers -- symbolic register names and conventions.
"""

from repro.isa.instructions import (
    InstrKind,
    Instruction,
    Opcode,
    ALU_OPS,
    ALU_IMM_OPS,
    BRANCH_OPS,
)
from repro.isa.registers import (
    NUM_REGISTERS,
    REG_ZERO,
    REG_RA,
    REG_SP,
    REG_FP,
    REG_RV,
    ARG_REGISTERS,
    TEMP_REGISTERS,
    SAVED_REGISTERS,
    REG_SCRATCH0,
    REG_SCRATCH1,
    register_name,
)
from repro.isa.program import Program, DataSegment
from repro.isa.errors import IsaError, ProgramError

__all__ = [
    "InstrKind",
    "Instruction",
    "Opcode",
    "ALU_OPS",
    "ALU_IMM_OPS",
    "BRANCH_OPS",
    "NUM_REGISTERS",
    "REG_ZERO",
    "REG_RA",
    "REG_SP",
    "REG_FP",
    "REG_RV",
    "ARG_REGISTERS",
    "TEMP_REGISTERS",
    "SAVED_REGISTERS",
    "REG_SCRATCH0",
    "REG_SCRATCH1",
    "register_name",
    "Program",
    "DataSegment",
    "IsaError",
    "ProgramError",
]
