"""Compiler from the mini-language AST to the ISA.

Lowering follows what an optimizing compiler (the paper used ``-O5``)
would produce for loop structure, because the loop detector keys off the
shape of the emitted control flow:

* ``While``/``For`` are *rotated*: a forward guard jump into the test,
  the test at the bottom, and a single backward conditional branch as the
  loop-closing branch.  The loop identifier ``T`` is the body label and
  the closing branch sits at the highest body address ``B``.
* ``DoWhile`` emits the body followed by the backward test directly.
* ``Break`` leaves through a forward jump (paper termination rule ii),
  ``Return`` through the function epilogue's ``ret`` (rule iii), and a
  falling-out test through the not-taken closing branch (rule i).

Locals live in an ``fp``-relative frame (slot 0 saved ra, slot 1 saved
fp); expression temporaries use ``t0..t9`` as an evaluation stack with a
memory spill once the stack is exhausted, so arbitrarily deep expressions
compile correctly.
"""

from repro.isa.instructions import Instruction, Opcode
from repro.isa.program import Program
from repro.isa.registers import (
    ARG_REGISTERS,
    REG_FP,
    REG_RA,
    REG_RV,
    REG_SCRATCH0,
    REG_SP,
    REG_ZERO,
    TEMP_REGISTERS,
)
from repro.lang import ast
from repro.lang.ast import LangError

_I = Instruction
_OP = Opcode

#: Three-register opcode per language operator.
_REG_OPS = {
    "+": _OP.ADD, "-": _OP.SUB, "*": _OP.MUL, "/": _OP.DIV, "%": _OP.REM,
    "&": _OP.AND, "|": _OP.OR, "^": _OP.XOR, "<<": _OP.SLL, ">>": _OP.SRA,
    "<": _OP.SLT, "<=": _OP.SLE, "==": _OP.SEQ, "!=": _OP.SNE,
    "min": _OP.MIN, "max": _OP.MAX,
}

#: Operators lowered by swapping the operands.
_SWAPPED_OPS = {">": _OP.SLT, ">=": _OP.SLE}

#: Immediate opcode when the right operand is a constant.
_IMM_OPS = {
    "+": _OP.ADDI, "-": _OP.SUBI, "*": _OP.MULI, "/": _OP.DIVI,
    "%": _OP.REMI, "&": _OP.ANDI, "|": _OP.ORI, "^": _OP.XORI,
    "<<": _OP.SLLI, ">>": _OP.SRAI, "<": _OP.SLTI,
}

_COMMUTATIVE = frozenset({"+", "*", "&", "|", "^", "min", "max"})

#: branch-if-true / branch-if-false opcodes per comparison operator.
_BRANCH_TRUE = {
    "<": _OP.BLT, "<=": _OP.BLE, ">": _OP.BGT, ">=": _OP.BGE,
    "==": _OP.BEQ, "!=": _OP.BNE,
}
_BRANCH_FALSE = {
    "<": _OP.BGE, "<=": _OP.BGT, ">": _OP.BLE, ">=": _OP.BLT,
    "==": _OP.BNE, "!=": _OP.BEQ,
}

_COMPARISONS = frozenset(_BRANCH_TRUE)

#: Calling-convention limit on parameters per function (one argument
#: register each); program generators size signatures against this.
MAX_PARAMS = len(ARG_REGISTERS)


def compile_module(module):
    """Compile *module* to a finalized :class:`repro.isa.Program`.

    The program's entry stub calls ``main`` and halts, so every compiled
    workload terminates with an explicit ``halt``.
    """
    if "main" not in module.functions:
        raise LangError("module %r has no main()" % module.name)
    if module.functions["main"].params:
        raise LangError("main() must take no parameters")

    program = Program(name=module.name)
    for name, (size, init) in module.arrays.items():
        program.data.allocate(name, size, init)
    for name, init in module.globals.items():
        program.data.allocate("g$" + name, 1, [init])

    program.label("_start")
    program.emit(_I(_OP.CALL, label=_fn_label("main")))
    program.emit(_I(_OP.HALT))
    program.set_entry("_start")

    for function in module.functions.values():
        _FunctionCompiler(program, module, function).compile()
    return program.finalize()


def _fn_label(name):
    return "fn$" + name


class _FunctionCompiler:
    """Compiles one function into the shared program."""

    def __init__(self, program, module, function):
        self.program = program
        self.module = module
        self.function = function
        self.slots = {}
        self.loop_stack = []  # (continue_label, break_label)
        self._label_counter = 0
        self._collect_locals()
        self.frame_size = 2 + len(self.slots)
        self.exit_label = self._fresh("exit")

    # -- naming ----------------------------------------------------------

    def _fresh(self, hint):
        self._label_counter += 1
        return "%s$%s$%d" % (self.function.name, hint, self._label_counter)

    # -- locals ----------------------------------------------------------

    def _collect_locals(self):
        # Statements in source order, walked with an explicit stack of
        # iterators: a recursive closure would hold itself, and so this
        # compiler, in a reference cycle.
        names = list(self.function.params)
        seen = set(names)
        module_globals = self.module.globals
        stack = [iter(self.function.body)]
        while stack:
            for stmt in stack[-1]:
                if isinstance(stmt, ast.Assign):
                    if stmt.name not in module_globals \
                            and stmt.name not in seen:
                        seen.add(stmt.name)
                        names.append(stmt.name)
                elif isinstance(stmt, ast.For):
                    if stmt.var in module_globals:
                        raise LangError(
                            "loop variable %r shadows a global" % stmt.var)
                    if stmt.var not in seen:
                        seen.add(stmt.var)
                        names.append(stmt.var)
                    stack.append(iter(stmt.body))
                    break
                elif isinstance(stmt, ast.If):
                    stack.append(iter(stmt.orelse))
                    stack.append(iter(stmt.then))
                    break
                elif isinstance(stmt, (ast.While, ast.DoWhile)):
                    stack.append(iter(stmt.body))
                    break
            else:
                stack.pop()
        for offset, name in enumerate(names):
            self.slots[name] = 2 + offset

    # -- emission helpers --------------------------------------------------

    def emit(self, *args, **kwargs):
        return self.program.emit(_I(*args, **kwargs))

    def _push(self, reg):
        self.emit(_OP.ADDI, rd=REG_SP, rs1=REG_SP, imm=-1)
        self.emit(_OP.ST, rs1=REG_SP, rs2=reg, imm=0)

    def _pop(self, reg):
        self.emit(_OP.LD, rd=reg, rs1=REG_SP, imm=0)
        self.emit(_OP.ADDI, rd=REG_SP, rs1=REG_SP, imm=1)

    # -- function structure ------------------------------------------------

    def compile(self):
        program = self.program
        program.label(_fn_label(self.function.name))
        self.emit(_OP.ADDI, rd=REG_SP, rs1=REG_SP, imm=-self.frame_size)
        self.emit(_OP.ST, rs1=REG_SP, rs2=REG_RA, imm=0)
        self.emit(_OP.ST, rs1=REG_SP, rs2=REG_FP, imm=1)
        self.emit(_OP.MV, rd=REG_FP, rs1=REG_SP)
        if len(self.function.params) > MAX_PARAMS:
            raise LangError("%r: too many parameters (max %d)"
                            % (self.function.name, MAX_PARAMS))
        for pos, param in enumerate(self.function.params):
            self.emit(_OP.ST, rs1=REG_FP, rs2=ARG_REGISTERS[pos],
                      imm=self.slots[param])
        self.stmts(self.function.body)
        program.label(self.exit_label)
        self.emit(_OP.LD, rd=REG_RA, rs1=REG_FP, imm=0)
        self.emit(_OP.LD, rd=REG_SCRATCH0, rs1=REG_FP, imm=1)
        self.emit(_OP.ADDI, rd=REG_SP, rs1=REG_FP, imm=self.frame_size)
        self.emit(_OP.MV, rd=REG_FP, rs1=REG_SCRATCH0)
        self.emit(_OP.RET)

    # -- statements --------------------------------------------------------

    def stmts(self, body):
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, stmt):
        if isinstance(stmt, ast.Assign):
            self.expr(stmt.expr, 0)
            self._store_name(stmt.name, TEMP_REGISTERS[0])
        elif isinstance(stmt, ast.Store):
            base = self._array_base(stmt.array)
            self.expr(stmt.index, 0)
            self.expr(stmt.expr, 1)
            self.emit(_OP.ST, rs1=TEMP_REGISTERS[0], rs2=TEMP_REGISTERS[1],
                      imm=base)
        elif isinstance(stmt, ast.Poke):
            self.expr(stmt.addr, 0)
            self.expr(stmt.expr, 1)
            self.emit(_OP.ST, rs1=TEMP_REGISTERS[0], rs2=TEMP_REGISTERS[1],
                      imm=0)
        elif isinstance(stmt, ast.ExprStmt):
            self.expr(stmt.expr, 0)
        elif isinstance(stmt, ast.Return):
            if stmt.expr is not None:
                self.expr(stmt.expr, 0)
                self.emit(_OP.MV, rd=REG_RV, rs1=TEMP_REGISTERS[0])
            self.emit(_OP.JMP, label=self.exit_label)
        elif isinstance(stmt, ast.If):
            self._compile_if(stmt)
        elif isinstance(stmt, ast.While):
            self._compile_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._compile_dowhile(stmt)
        elif isinstance(stmt, ast.For):
            self._compile_for(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise LangError("break outside loop in %r"
                                % self.function.name)
            self.emit(_OP.JMP, label=self.loop_stack[-1][1])
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise LangError("continue outside loop in %r"
                                % self.function.name)
            self.emit(_OP.JMP, label=self.loop_stack[-1][0])
        else:
            raise LangError("unknown statement %r" % (stmt,))

    def _compile_if(self, stmt):
        else_label = self._fresh("else")
        end_label = self._fresh("endif")
        target = else_label if stmt.orelse else end_label
        self._branch_if_false(stmt.cond, target)
        self.stmts(stmt.then)
        if stmt.orelse:
            self.emit(_OP.JMP, label=end_label)
            self.program.label(else_label)
            self.stmts(stmt.orelse)
        self.program.label(end_label)

    def _compile_while(self, stmt):
        # Loop rotation with a duplicated guard test (what -O5 emits):
        # entry falls into the body only when the condition holds, and
        # the only backward branch is the bottom test, so the detector
        # sees exactly one closing branch per completed iteration.
        body_label = self._fresh("wbody")
        test_label = self._fresh("wtest")
        exit_label = self._fresh("wexit")
        self._branch_if_false(stmt.cond, exit_label)
        self.program.label(body_label)
        self.loop_stack.append((test_label, exit_label))
        self.stmts(stmt.body)
        self.loop_stack.pop()
        self.program.label(test_label)
        self._branch_if_true(stmt.cond, body_label)
        self.program.label(exit_label)

    def _compile_dowhile(self, stmt):
        body_label = self._fresh("dbody")
        test_label = self._fresh("dtest")
        exit_label = self._fresh("dexit")
        self.program.label(body_label)
        self.loop_stack.append((test_label, exit_label))
        self.stmts(stmt.body)
        self.loop_stack.pop()
        self.program.label(test_label)
        self._branch_if_true(stmt.cond, body_label)
        self.program.label(exit_label)

    def _compile_for(self, stmt):
        body_label = self._fresh("fbody")
        step_label = self._fresh("fstep")
        test_label = self._fresh("ftest")
        exit_label = self._fresh("fexit")
        var = ast.Var(stmt.var)
        cond = var < stmt.stop if stmt.step > 0 else var > stmt.stop
        self.expr(stmt.start, 0)
        self._store_name(stmt.var, TEMP_REGISTERS[0])
        self._branch_if_false(cond, exit_label)      # rotated guard
        self.program.label(body_label)
        self.loop_stack.append((step_label, exit_label))
        self.stmts(stmt.body)
        self.loop_stack.pop()
        self.program.label(step_label)
        self.expr(var + stmt.step, 0)
        self._store_name(stmt.var, TEMP_REGISTERS[0])
        self.program.label(test_label)
        self._branch_if_true(cond, body_label)
        self.program.label(exit_label)

    # -- conditions ----------------------------------------------------------

    def _branch_if_true(self, cond, label):
        self._conditional_branch(cond, label, when_true=True)

    def _branch_if_false(self, cond, label):
        self._conditional_branch(cond, label, when_true=False)

    def _conditional_branch(self, cond, label, when_true):
        t0, t1 = TEMP_REGISTERS[0], TEMP_REGISTERS[1]
        if isinstance(cond, ast.Const):
            truthy = cond.value != 0
            if truthy == when_true:
                self.emit(_OP.JMP, label=label)
            return
        if isinstance(cond, ast.BinOp) and cond.op in _COMPARISONS:
            table = _BRANCH_TRUE if when_true else _BRANCH_FALSE
            self.expr(cond.left, 0)
            self.expr(cond.right, 1)
            self.emit(table[cond.op], rs1=t0, rs2=t1, label=label)
            return
        self.expr(cond, 0)
        op = _OP.BNE if when_true else _OP.BEQ
        self.emit(op, rs1=t0, rs2=REG_ZERO, label=label)

    # -- names ----------------------------------------------------------------

    def _store_name(self, name, reg):
        if name in self.slots:
            self.emit(_OP.ST, rs1=REG_FP, rs2=reg, imm=self.slots[name])
        elif name in self.module.globals:
            addr = self.program.data.address_of("g$" + name)
            self.emit(_OP.ST, rs1=REG_ZERO, rs2=reg, imm=addr)
        else:
            raise LangError("assignment to unknown name %r in %r"
                            % (name, self.function.name))

    def _load_name(self, name, reg):
        if name in self.slots:
            self.emit(_OP.LD, rd=reg, rs1=REG_FP, imm=self.slots[name])
        elif name in self.module.globals:
            addr = self.program.data.address_of("g$" + name)
            self.emit(_OP.LD, rd=reg, rs1=REG_ZERO, imm=addr)
        else:
            raise LangError("read of unknown name %r in %r"
                            % (name, self.function.name))

    def _array_base(self, name):
        if name not in self.module.arrays:
            raise LangError("unknown array %r in %r"
                            % (name, self.function.name))
        return self.program.data.address_of(name)

    # -- expressions ------------------------------------------------------------

    def expr(self, node, depth):
        """Emit code leaving the value of *node* in ``TEMP_REGISTERS[depth]``."""
        dest = TEMP_REGISTERS[depth]
        if isinstance(node, ast.Const):
            self.emit(_OP.LI, rd=dest, imm=node.value)
        elif isinstance(node, ast.Var):
            self._load_name(node.name, dest)
        elif isinstance(node, ast.AddrOf):
            self.emit(_OP.LI, rd=dest, imm=self._array_base(node.array))
        elif isinstance(node, ast.Index):
            base = self._array_base(node.array)
            self.expr(node.index, depth)
            self.emit(_OP.LD, rd=dest, rs1=dest, imm=base)
        elif isinstance(node, ast.Deref):
            self.expr(node.addr, depth)
            self.emit(_OP.LD, rd=dest, rs1=dest, imm=0)
        elif isinstance(node, ast.UnaryOp):
            self.expr(node.operand, depth)
            if node.op == "-":
                self.emit(_OP.SUB, rd=dest, rs1=REG_ZERO, rs2=dest)
            else:  # logical not
                self.emit(_OP.SEQ, rd=dest, rs1=dest, rs2=REG_ZERO)
        elif isinstance(node, ast.BinOp):
            self._binop(node, depth)
        elif isinstance(node, ast.CallExpr):
            self._call(node, depth)
        else:
            raise LangError("unknown expression %r" % (node,))

    def _binop(self, node, depth):
        dest = TEMP_REGISTERS[depth]
        op, left, right = node.op, node.left, node.right
        if isinstance(left, ast.Const) and not isinstance(right, ast.Const) \
                and op in _COMMUTATIVE:
            left, right = right, left
        if isinstance(right, ast.Const) and op in _IMM_OPS:
            self.expr(left, depth)
            self.emit(_IMM_OPS[op], rd=dest, rs1=dest, imm=right.value)
            return
        if op in _SWAPPED_OPS:
            opcode = _SWAPPED_OPS[op]
            left, right = right, left
        else:
            opcode = _REG_OPS[op]
        if depth + 1 < len(TEMP_REGISTERS):
            other = TEMP_REGISTERS[depth + 1]
            self.expr(left, depth)
            self.expr(right, depth + 1)
            self.emit(opcode, rd=dest, rs1=dest, rs2=other)
        else:
            # Temp stack exhausted: spill the left value to memory.
            self.expr(left, depth)
            self._push(dest)
            self.expr(right, depth)
            self._pop(REG_SCRATCH0)
            self.emit(opcode, rd=dest, rs1=REG_SCRATCH0, rs2=dest)

    def _call(self, node, depth):
        if node.func not in self.module.functions:
            raise LangError("call to unknown function %r" % node.func)
        callee = self.module.functions[node.func]
        if len(node.args) != len(callee.params):
            raise LangError(
                "%r called with %d args, expects %d"
                % (node.func, len(node.args), len(callee.params)))
        if len(node.args) > MAX_PARAMS:
            raise LangError("too many arguments in call to %r" % node.func)
        live = [TEMP_REGISTERS[i] for i in range(depth)]
        for reg in live:
            self._push(reg)
        for arg in node.args:
            self.expr(arg, 0)
            self._push(TEMP_REGISTERS[0])
        for pos in reversed(range(len(node.args))):
            self._pop(ARG_REGISTERS[pos])
        self.emit(_OP.CALL, label=_fn_label(node.func))
        for reg in reversed(live):
            self._pop(reg)
        self.emit(_OP.MV, rd=TEMP_REGISTERS[depth], rs1=REG_RV)
