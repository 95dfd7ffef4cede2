"""Text assembler for tests: hand-written programs in a few lines.

Production builds programs through :mod:`repro.lang`; tests that need
a precise instruction sequence write it as text.  Accepts a
conventional line-oriented syntax::

    ; comment
    .data table 8 = 1 2 3 4 5 6 7 8
    .entry main
    main:
        li   t0, 0
        li   t1, 10
    loop:
        addi t0, t0, 1
        blt  t0, t1, loop
        halt

Directives:

``.data NAME SIZE [= v0 v1 ...]``
    allocate SIZE words of data memory, optionally initialized.
``.entry LABEL``
    set the program entry point (defaults to address 0).

Memory operands use ``imm(reg)`` syntax; branch/jump targets are labels or
absolute integers.
"""

import re

from repro.isa.errors import IsaError
from repro.isa.instructions import (
    ALU_IMM_OPS,
    ALU_OPS,
    BRANCH_OPS,
    Instruction,
    Opcode,
)
from repro.isa.program import Program
from repro.isa.registers import ARG_REGISTERS, NUM_REGISTERS, register_name

_MEM_RE = re.compile(r"^(-?\w+)\((\w+)\)$")
_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

#: Every register name: ``r<n>``, the canonical names, and ``a0`` for
#: the first argument register (canonically ``rv``).
_REGISTERS = {"r%d" % index: index for index in range(NUM_REGISTERS)}
_REGISTERS.update((register_name(index), index)
                  for index in range(NUM_REGISTERS))
_REGISTERS.update(("a%d" % pos, index)
                  for pos, index in enumerate(ARG_REGISTERS))


class AssemblerError(IsaError):
    """Raised when text assembly cannot be parsed or resolved."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


def parse_register(text):
    """Parse a register name (``r7``, ``sp``, ``t3``, ...) to its index."""
    try:
        return _REGISTERS[text.strip().lower()]
    except KeyError:
        raise IsaError("unknown register name: %r" % (text,)) from None


def _split_operands(rest):
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def _parse_int(text, line):
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError("expected integer, got %r" % text, line) from None


def _parse_target(text, line):
    """A target is either an absolute integer or a label reference."""
    try:
        return int(text, 0), None
    except ValueError:
        pass
    if not _LABEL_RE.match(text):
        raise AssemblerError("bad target %r" % text, line)
    return None, text


def _parse_reg(text, line):
    try:
        return parse_register(text)
    except Exception:
        raise AssemblerError("bad register %r" % text, line) from None


def _expect(operands, count, mnemonic, line):
    if len(operands) != count:
        raise AssemblerError(
            "%s expects %d operands, got %d" % (mnemonic, count,
                                                len(operands)), line)


def assemble(source, name="program"):
    """Assemble *source* text into a finalized :class:`Program`."""
    program = Program(name=name)
    entry_label = None
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].split("#", 1)[0].strip()
        if not line:
            continue
        while ":" in line:
            label, _, line = line.partition(":")
            label = label.strip()
            if not _LABEL_RE.match(label):
                raise AssemblerError("bad label %r" % label, lineno)
            try:
                program.label(label)
            except Exception as exc:
                raise AssemblerError(str(exc), lineno) from None
            line = line.strip()
        if not line:
            continue
        if line.startswith(".data"):
            _parse_data_directive(program, line, lineno)
            continue
        if line.startswith(".entry"):
            parts = line.split()
            if len(parts) != 2:
                raise AssemblerError(".entry expects one label", lineno)
            entry_label = parts[1]
            continue
        program.emit(_parse_instruction(line, lineno))
    if entry_label is not None:
        try:
            program.set_entry(entry_label)
        except Exception as exc:
            raise AssemblerError(str(exc)) from None
    try:
        program.finalize()
    except Exception as exc:
        raise AssemblerError(str(exc)) from None
    return program


def _parse_data_directive(program, line, lineno):
    body = line[len(".data"):].strip()
    init = None
    if "=" in body:
        body, _, init_text = body.partition("=")
        init = [_parse_int(tok, lineno) for tok in init_text.split()]
    parts = body.split()
    if len(parts) != 2:
        raise AssemblerError(".data expects NAME SIZE", lineno)
    name, size_text = parts
    size = _parse_int(size_text, lineno)
    try:
        program.data.allocate(name, size, init)
    except Exception as exc:
        raise AssemblerError(str(exc), lineno) from None


def _parse_instruction(line, lineno):
    mnemonic, _, rest = line.partition(" ")
    mnemonic = mnemonic.strip().lower()
    try:
        op = Opcode(mnemonic)
    except ValueError:
        raise AssemblerError("unknown mnemonic %r" % mnemonic,
                             lineno) from None
    ops = _split_operands(rest)

    if op in ALU_OPS:
        _expect(ops, 3, mnemonic, lineno)
        return Instruction(op, rd=_parse_reg(ops[0], lineno),
                           rs1=_parse_reg(ops[1], lineno),
                           rs2=_parse_reg(ops[2], lineno))
    if op in ALU_IMM_OPS:
        _expect(ops, 3, mnemonic, lineno)
        return Instruction(op, rd=_parse_reg(ops[0], lineno),
                           rs1=_parse_reg(ops[1], lineno),
                           imm=_parse_int(ops[2], lineno))
    if op in BRANCH_OPS:
        _expect(ops, 3, mnemonic, lineno)
        target, label = _parse_target(ops[2], lineno)
        return Instruction(op, rs1=_parse_reg(ops[0], lineno),
                           rs2=_parse_reg(ops[1], lineno),
                           target=target, label=label)
    if op is Opcode.LI:
        _expect(ops, 2, mnemonic, lineno)
        return Instruction(op, rd=_parse_reg(ops[0], lineno),
                           imm=_parse_int(ops[1], lineno))
    if op is Opcode.MV:
        _expect(ops, 2, mnemonic, lineno)
        return Instruction(op, rd=_parse_reg(ops[0], lineno),
                           rs1=_parse_reg(ops[1], lineno))
    if op is Opcode.LD:
        _expect(ops, 2, mnemonic, lineno)
        base, offset = _parse_mem_operand(ops[1], lineno)
        return Instruction(op, rd=_parse_reg(ops[0], lineno),
                           rs1=base, imm=offset)
    if op is Opcode.ST:
        _expect(ops, 2, mnemonic, lineno)
        base, offset = _parse_mem_operand(ops[1], lineno)
        return Instruction(op, rs2=_parse_reg(ops[0], lineno),
                           rs1=base, imm=offset)
    if op in (Opcode.JMP, Opcode.CALL):
        _expect(ops, 1, mnemonic, lineno)
        target, label = _parse_target(ops[0], lineno)
        return Instruction(op, target=target, label=label)
    if op is Opcode.JR:
        _expect(ops, 1, mnemonic, lineno)
        return Instruction(op, rs1=_parse_reg(ops[0], lineno))
    if op in (Opcode.RET, Opcode.NOP, Opcode.HALT):
        _expect(ops, 0, mnemonic, lineno)
        return Instruction(op)
    raise AssemblerError("unhandled opcode %r" % mnemonic, lineno)


def _parse_mem_operand(text, lineno):
    match = _MEM_RE.match(text.replace(" ", ""))
    if not match:
        raise AssemblerError("bad memory operand %r" % text, lineno)
    offset_text, reg_text = match.groups()
    return _parse_reg(reg_text, lineno), _parse_int(offset_text, lineno)
