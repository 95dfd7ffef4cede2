"""Unit tests for the reference interpreter."""

import pytest

from repro.cpu import Machine, STACK_TOP, wrap64
from repro.isa import ProgramError

from assembler import assemble


def run(source):
    machine = Machine(assemble(source))
    machine.run()
    return machine


class TestAlu:
    def test_arithmetic(self):
        m = run("""
main:
    li t0, 7
    li t1, 3
    add t2, t0, t1
    sub t3, t0, t1
    mul t4, t0, t1
    div t5, t0, t1
    rem t6, t0, t1
    halt
""")
        assert m.regs[12:17] == [10, 4, 21, 2, 1]

    def test_division_semantics(self):
        m = run("""
main:
    li t0, -7
    li t1, 2
    div t2, t0, t1
    rem t3, t0, t1
    li t4, 5
    div t5, t4, zero
    rem t6, t4, zero
    halt
""")
        # Truncating division; by-zero is defined as (0, x).
        assert m.regs[12] == -3
        assert m.regs[13] == -1
        assert m.regs[15] == 0
        assert m.regs[16] == 5

    def test_comparisons(self):
        m = run("""
main:
    li t0, 2
    li t1, 5
    slt t2, t0, t1
    sle t3, t1, t1
    seq t4, t0, t1
    sne t5, t0, t1
    min t6, t0, t1
    max t7, t0, t1
    halt
""")
        assert m.regs[12:18] == [1, 1, 0, 1, 2, 5]

    def test_shifts_and_logic(self):
        m = run("""
main:
    li t0, 12
    slli t1, t0, 2
    srli t2, t0, 2
    srai t3, t0, 1
    andi t4, t0, 10
    ori  t5, t0, 3
    xori t6, t0, 6
    halt
""")
        assert m.regs[11:17] == [48, 3, 6, 8, 15, 10]

    def test_wrap64_overflow(self):
        assert wrap64(2**63) == -(2**63)
        assert wrap64(-(2**63) - 1) == 2**63 - 1
        m = run("""
main:
    li t0, 0x7fffffffffffffff
    addi t1, t0, 1
    halt
""")
        assert m.regs[11] == -(2**63)


class TestControlFlow:
    def test_zero_register_immutable(self):
        m = run("main:\n  li zero, 5\n  addi zero, zero, 3\n  halt\n")
        assert m.regs[0] == 0

    def test_call_and_ret(self):
        m = run("""
main:
    call sub
    halt
sub:
    li t0, 42
    ret
""")
        assert m.regs[10] == 42
        assert m.halted

    def test_indirect_jump(self):
        m = run("""
main:
    li t0, 4
    jr t0
    li t1, 1
    halt
    li t1, 2
    halt
""")
        assert m.regs[11] == 2

    def test_branch_taken_and_not(self):
        m = run("""
main:
    li t0, 1
    li t1, 2
    beq t0, t1, skip
    li t2, 7
skip:
    bne t0, t1, done
    li t2, 9
done:
    halt
""")
        assert m.regs[12] == 7

    def test_stack_pointer_initialized(self):
        m = Machine(assemble("main:\n  halt\n"))
        assert m.regs[2] == STACK_TOP

    def test_memory_load_store(self):
        m = run("""
main:
    li t0, 1000
    li t1, 77
    st t1, 5(t0)
    ld t2, 5(t0)
    halt
""")
        assert m.regs[12] == 77
        assert m.memory.load(1005) == 77

    def test_run_budget_enforced(self):
        with pytest.raises(ProgramError):
            Machine(assemble("main:\n  jmp main\n  halt\n")).run(
                max_instructions=100)

    def test_step_after_halt_rejected(self):
        m = run("main:\n  halt\n")
        with pytest.raises(ProgramError):
            m.step()
