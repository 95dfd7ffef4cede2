"""AST-level optimizer for the mini-language.

Performs the machine-independent simplifications an ``-O`` compiler
would before lowering:

* **constant folding** with the target's arithmetic (64-bit wrap,
  truncating division, defined division by zero);
* **algebraic identities**: ``x+0``, ``x*1``, ``x*0``, ``x-0``,
  ``x/1``, ``x|0``, ``x&0``, ``x^0``, shifts by 0;
* **dead branch elimination**: ``if (const)`` keeps one arm, loops with
  constant-false conditions disappear;
* **unreachable-code trimming** after ``return``/``break``/``continue``.

The transformations never change observable behaviour (results, memory
effects, call order); the differential tests in
``tests/test_optimizer.py`` pin that by executing both versions.  Loop
*structure* of surviving loops is preserved, so the detector sees the
same loop identity -- only dead or trivially-constant work disappears.
"""

from repro.cpu.machine import _div, _rem, wrap64
from repro.lang import ast

_FOLDERS = {
    "+": lambda a, b: wrap64(a + b),
    "-": lambda a, b: wrap64(a - b),
    "*": lambda a, b: wrap64(a * b),
    "/": _div,
    "%": _rem,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: wrap64(a << (b & 63)),
    ">>": lambda a, b: a >> (b & 63),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "min": min,
    "max": max,
}


def _is_const(expr, value=None):
    if not isinstance(expr, ast.Const):
        return False
    return value is None or expr.value == value


def _has_calls(expr):
    """Calls may have side effects; such expressions cannot vanish."""
    if isinstance(expr, ast.CallExpr):
        return True
    if isinstance(expr, ast.BinOp):
        return _has_calls(expr.left) or _has_calls(expr.right)
    if isinstance(expr, ast.UnaryOp):
        return _has_calls(expr.operand)
    if isinstance(expr, ast.Index):
        return _has_calls(expr.index)
    if isinstance(expr, ast.Deref):
        return _has_calls(expr.addr)
    return False


class Optimizer:
    """Rewrites a module; collects simple statistics about its work."""

    def __init__(self):
        self.folded = 0
        self.identities = 0
        self.dead_branches = 0
        self.dead_statements = 0

    # -- expressions -----------------------------------------------------

    def expr(self, node):
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            operand = self.expr(node.operand)
            if isinstance(operand, ast.Const):
                self.folded += 1
                if node.op == "-":
                    return ast.Const(wrap64(-operand.value))
                return ast.Const(int(operand.value == 0))
            return ast.UnaryOp(node.op, operand)
        if isinstance(node, ast.Index):
            return ast.Index(node.array, self.expr(node.index))
        if isinstance(node, ast.Deref):
            return ast.Deref(self.expr(node.addr))
        if isinstance(node, ast.CallExpr):
            return ast.CallExpr(node.func,
                                *[self.expr(a) for a in node.args])
        return node

    def _binop(self, node):
        left = self.expr(node.left)
        right = self.expr(node.right)
        op = node.op
        if isinstance(left, ast.Const) and isinstance(right, ast.Const):
            self.folded += 1
            return ast.Const(_FOLDERS[op](left.value, right.value))
        # Identities; the discarded side must be side-effect free.
        if op in ("+", "|", "^") and _is_const(left, 0):
            self.identities += 1
            return right
        if op in ("+", "-", "|", "^", ">>", "<<") and _is_const(right, 0):
            self.identities += 1
            return left
        if op == "*" and _is_const(right, 1):
            self.identities += 1
            return left
        if op == "*" and _is_const(left, 1):
            self.identities += 1
            return right
        if op in ("*", "&") and (
                (_is_const(left, 0) and not _has_calls(right))
                or (_is_const(right, 0) and not _has_calls(left))):
            self.identities += 1
            return ast.Const(0)
        if op == "/" and _is_const(right, 1):
            self.identities += 1
            return left
        return ast.BinOp(op, left, right)

    # -- statements --------------------------------------------------------

    def body(self, stmts):
        out = []
        for stmt in stmts:
            rewritten = self.stmt(stmt)
            if rewritten is None:
                continue
            if isinstance(rewritten, list):
                out.extend(rewritten)
            else:
                out.append(rewritten)
            last = out[-1] if out else None
            if isinstance(last, (ast.Return, ast.Break, ast.Continue)):
                break
        return out

    def stmt(self, stmt):
        if isinstance(stmt, ast.Assign):
            return ast.Assign(stmt.name, self.expr(stmt.expr))
        if isinstance(stmt, ast.Store):
            return ast.Store(stmt.array, self.expr(stmt.index),
                             self.expr(stmt.expr))
        if isinstance(stmt, ast.Poke):
            return ast.Poke(self.expr(stmt.addr), self.expr(stmt.expr))
        if isinstance(stmt, ast.ExprStmt):
            expr = self.expr(stmt.expr)
            if not _has_calls(expr):
                self.dead_statements += 1
                return None
            return ast.ExprStmt(expr)
        if isinstance(stmt, ast.Return):
            return ast.Return(None if stmt.expr is None
                              else self.expr(stmt.expr))
        if isinstance(stmt, ast.If):
            return self._if(stmt)
        if isinstance(stmt, ast.While):
            cond = self.expr(stmt.cond)
            if _is_const(cond, 0):
                self.dead_branches += 1
                return None
            return ast.While(cond, self.body(stmt.body))
        if isinstance(stmt, ast.DoWhile):
            return ast.DoWhile(self.body(stmt.body),
                               self.expr(stmt.cond))
        if isinstance(stmt, ast.For):
            start = self.expr(stmt.start)
            stop = self.expr(stmt.stop)
            if isinstance(start, ast.Const) and isinstance(stop, ast.Const):
                empty = start.value >= stop.value if stmt.step > 0 \
                    else start.value <= stop.value
                if empty:
                    self.dead_branches += 1
                    # The loop variable is still assigned its start.
                    return ast.Assign(stmt.var, start)
            return ast.For(stmt.var, start, stop, self.body(stmt.body),
                           step=stmt.step)
        return stmt

    def _if(self, stmt):
        cond = self.expr(stmt.cond)
        if isinstance(cond, ast.Const):
            self.dead_branches += 1
            chosen = stmt.then if cond.value else stmt.orelse
            return self.body(list(chosen))
        return ast.If(cond, self.body(stmt.then), self.body(stmt.orelse))

    # -- module ---------------------------------------------------------------

    def module(self, module):
        out = ast.Module(module.name)
        for name, (size, init) in module.arrays.items():
            out.array(name, size, init)
        for name, init in module.globals.items():
            out.scalar(name, init)
        for function in module.functions.values():
            out.function(function.name, list(function.params),
                         self.body(function.body) or [ast.Return(None)])
        return out


def optimize_module(module):
    """Return an optimized copy of *module* (the input is not mutated)."""
    return Optimizer().module(module)
