"""Register file definition and software conventions.

The machine has 32 general-purpose 64-bit registers.  Register 0 is
hard-wired to zero, as in most RISC ISAs.  The remaining conventions are
purely a software contract between :mod:`repro.lang.compiler` and hand
written assembly:

====== ========= ==========================================
index  name      role
====== ========= ==========================================
0      zero      always reads as 0, writes are discarded
1      ra        return address (written by ``call``)
2      sp        stack pointer
3      fp        frame pointer
4      rv        first argument / return value
5-9    a1..a5    further arguments
10-19  t0..t9    expression temporaries (caller saved)
20-29  s0..s9    saved registers (callee saved)
30-31  x0..x1    compiler scratch
====== ========= ==========================================
"""

from repro.isa.errors import IsaError

NUM_REGISTERS = 32

REG_ZERO = 0
REG_RA = 1
REG_SP = 2
REG_FP = 3
REG_RV = 4

#: Argument registers, in order; the first doubles as the return value.
ARG_REGISTERS = (4, 5, 6, 7, 8, 9)

#: Temporaries used by the expression compiler as an evaluation stack.
TEMP_REGISTERS = tuple(range(10, 20))

#: Callee-saved registers.
SAVED_REGISTERS = tuple(range(20, 30))

REG_SCRATCH0 = 30
REG_SCRATCH1 = 31

_SPECIAL_NAMES = {
    REG_ZERO: "zero",
    REG_RA: "ra",
    REG_SP: "sp",
    REG_FP: "fp",
}

def register_name(index):
    """Return the canonical symbolic name of register *index*."""
    if not 0 <= index < NUM_REGISTERS:
        raise IsaError("register index out of range: %r" % (index,))
    if index in _SPECIAL_NAMES:
        return _SPECIAL_NAMES[index]
    if index == REG_RV:
        return "rv"
    if index in ARG_REGISTERS:
        return "a%d" % ARG_REGISTERS.index(index)
    if index in TEMP_REGISTERS:
        return "t%d" % TEMP_REGISTERS.index(index)
    if index in SAVED_REGISTERS:
        return "s%d" % SAVED_REGISTERS.index(index)
    if index == REG_SCRATCH0:
        return "x0"
    return "x1"
