"""Recursive-descent parser: mini-language text -> AST module.

See :mod:`repro.lang.lexer` for the surface syntax.  The parser builds
the same :class:`~repro.lang.ast.Module` objects the Python DSL does, so
workloads can be authored either way; ``parse_module`` plus
:func:`~repro.lang.compiler.compile_module` is a complete text-to-ISA
pipeline (used by the quickstart-style tooling and tests).

Grammar notes:

* ``for (i = start; i < stop; i += step)`` maps to the range-based
  :class:`~repro.lang.ast.For`; the condition must test the loop
  variable against the bound in the step's direction.
* ``and`` / ``or`` / ``not`` are *bitwise over booleans*: operands are
  normalized with ``!= 0`` first (the language has no short-circuit
  evaluation -- nor does compiled straight-line RISC code).
* ``name[expr]`` indexes a global array; ``mem[expr]`` dereferences an
  absolute address; ``addr(name)`` is an array's base address.
"""

from repro.lang import ast
from repro.lang.ast import LangError
from repro.lang.lexer import tokenize


class ParseError(LangError):
    def __init__(self, message, token):
        super().__init__("line %d:%d: %s" % (token.line, token.column,
                                             message))
        self.token = token


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def current(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def check(self, kind, value=None):
        token = self.current
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def accept(self, kind, value=None):
        if self.check(kind, value):
            return self.advance()
        return None

    def expect(self, kind, value=None):
        token = self.accept(kind, value)
        if token is None:
            want = value if value is not None else kind
            raise ParseError("expected %r, found %r"
                             % (want, self.current.value), self.current)
        return token

    # -- module level ---------------------------------------------------------

    def parse_module(self, name):
        module = ast.Module(name)
        while not self.check("eof"):
            if self.accept("keyword", "array"):
                self._array_decl(module)
            elif self.accept("keyword", "global"):
                self._global_decl(module)
            elif self.accept("keyword", "func"):
                self._func_decl(module)
            else:
                raise ParseError(
                    "expected 'array', 'global' or 'func'", self.current)
        return module

    def _array_decl(self, module):
        name = self.expect("ident").value
        self.expect("op", "[")
        size = self.expect("number").value
        self.expect("op", "]")
        init = None
        if self.accept("op", "="):
            self.expect("op", "{")
            init = []
            if not self.check("op", "}"):
                init.append(self._signed_number())
                while self.accept("op", ","):
                    init.append(self._signed_number())
            self.expect("op", "}")
        self.expect("op", ";")
        module.array(name, size, init)

    def _signed_number(self):
        negative = self.accept("op", "-") is not None
        value = self.expect("number").value
        return -value if negative else value

    def _global_decl(self, module):
        name = self.expect("ident").value
        init = 0
        if self.accept("op", "="):
            init = self._signed_number()
        self.expect("op", ";")
        module.scalar(name, init)

    def _func_decl(self, module):
        name = self.expect("ident").value
        self.expect("op", "(")
        params = []
        if self.check("ident"):
            params.append(self.advance().value)
            while self.accept("op", ","):
                params.append(self.expect("ident").value)
        self.expect("op", ")")
        body = self._block()
        module.function(name, params, body)

    # -- statements -------------------------------------------------------------

    def _block(self):
        self.expect("op", "{")
        stmts = []
        while not self.check("op", "}"):
            stmts.append(self._statement())
        self.expect("op", "}")
        return stmts

    def _statement(self):
        if self.accept("keyword", "var"):
            name = self.expect("ident").value
            self.expect("op", "=")
            expr = self._expression()
            self.expect("op", ";")
            return ast.Assign(name, expr)
        if self.accept("keyword", "return"):
            expr = None
            if not self.check("op", ";"):
                expr = self._expression()
            self.expect("op", ";")
            return ast.Return(expr)
        if self.accept("keyword", "break"):
            self.expect("op", ";")
            return ast.Break()
        if self.accept("keyword", "continue"):
            self.expect("op", ";")
            return ast.Continue()
        if self.accept("keyword", "if"):
            return self._if_statement()
        if self.accept("keyword", "while"):
            self.expect("op", "(")
            cond = self._expression()
            self.expect("op", ")")
            return ast.While(cond, self._block())
        if self.accept("keyword", "do"):
            body = self._block()
            self.expect("keyword", "while")
            self.expect("op", "(")
            cond = self._expression()
            self.expect("op", ")")
            self.expect("op", ";")
            return ast.DoWhile(body, cond)
        if self.accept("keyword", "for"):
            return self._for_statement()
        if self.accept("keyword", "mem"):
            self.expect("op", "[")
            addr = self._expression()
            self.expect("op", "]")
            self.expect("op", "=")
            value = self._expression()
            self.expect("op", ";")
            return ast.Poke(addr, value)
        return self._assignment_or_call()

    def _if_statement(self):
        self.expect("op", "(")
        cond = self._expression()
        self.expect("op", ")")
        then = self._block()
        orelse = []
        if self.accept("keyword", "else"):
            if self.accept("keyword", "if"):
                orelse = [self._if_statement()]
            else:
                orelse = self._block()
        return ast.If(cond, then, orelse)

    def _for_statement(self):
        self.expect("op", "(")
        var = self.expect("ident").value
        self.expect("op", "=")
        start = self._expression()
        self.expect("op", ";")
        cond_var = self.expect("ident").value
        if cond_var != var:
            raise ParseError("for-condition must test %r" % var,
                             self.current)
        direction = self.expect("op").value
        if direction not in ("<", ">"):
            raise ParseError("for-condition must use '<' or '>'",
                             self.current)
        stop = self._expression()
        self.expect("op", ";")
        step_var = self.expect("ident").value
        if step_var != var:
            raise ParseError("for-update must modify %r" % var,
                             self.current)
        op = self.expect("op").value
        if op not in ("+=", "-="):
            raise ParseError("for-update must be '+=' or '-='",
                             self.current)
        step_tok = self.current
        negative = self.accept("op", "-") is not None
        step = self.expect("number").value
        if negative:
            step = -step
        if op == "-=":
            step = -step
        if (step > 0) != (direction == "<"):
            raise ParseError("for-condition direction does not match "
                             "the step sign", step_tok)
        self.expect("op", ")")
        return ast.For(var, start, stop, self._block(), step=step)

    def _assignment_or_call(self):
        name = self.expect("ident").value
        if self.accept("op", "["):
            index = self._expression()
            self.expect("op", "]")
            op = self.expect("op").value
            target = ast.Index(name, index)
            value = self._augmented(target, op)
            self.expect("op", ";")
            return ast.Store(name, index, value)
        if self.check("op", "("):
            call = self._call(name)
            self.expect("op", ";")
            return ast.ExprStmt(call)
        op = self.expect("op").value
        value = self._augmented(ast.Var(name), op)
        self.expect("op", ";")
        return ast.Assign(name, value)

    _AUG_OPS = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%",
                "&=": "&", "|=": "|", "^=": "^", "<<=": "<<", ">>=": ">>"}

    def _augmented(self, target, op):
        expr = self._expression()
        if op == "=":
            return expr
        if op in self._AUG_OPS:
            return ast.BinOp(self._AUG_OPS[op], target, expr)
        raise ParseError("bad assignment operator %r" % op, self.current)

    # -- expressions ----------------------------------------------------------------

    def _expression(self):
        return self._or_expr()

    @staticmethod
    def _as_bool(expr):
        return expr.ne(0)

    def _or_expr(self):
        left = self._and_expr()
        while self.accept("keyword", "or"):
            right = self._and_expr()
            left = ast.BinOp("|", self._as_bool(left),
                             self._as_bool(right))
        return left

    def _and_expr(self):
        left = self._comparison()
        while self.accept("keyword", "and"):
            right = self._comparison()
            left = ast.BinOp("&", self._as_bool(left),
                             self._as_bool(right))
        return left

    _COMPARISONS = ("==", "!=", "<=", ">=", "<", ">")

    def _comparison(self):
        left = self._bitor()
        while self.check("op") and self.current.value in self._COMPARISONS:
            op = self.advance().value
            right = self._bitor()
            left = ast.BinOp(op, left, right)
        return left

    def _binary_level(self, ops, next_level):
        left = next_level()
        while self.check("op") and self.current.value in ops:
            op = self.advance().value
            left = ast.BinOp(op, left, next_level())
        return left

    def _bitor(self):
        return self._binary_level(("|",), self._bitxor)

    def _bitxor(self):
        return self._binary_level(("^",), self._bitand)

    def _bitand(self):
        return self._binary_level(("&",), self._shift)

    def _shift(self):
        return self._binary_level(("<<", ">>"), self._additive)

    def _additive(self):
        return self._binary_level(("+", "-"), self._multiplicative)

    def _multiplicative(self):
        return self._binary_level(("*", "/", "%"), self._unary)

    def _unary(self):
        if self.accept("op", "-"):
            return ast.UnaryOp("-", self._unary())
        if self.accept("op", "!") or self.accept("keyword", "not"):
            return ast.UnaryOp("!", self._unary())
        return self._primary()

    def _primary(self):
        if self.check("number"):
            return ast.Const(self.advance().value)
        if self.accept("op", "("):
            expr = self._expression()
            self.expect("op", ")")
            return expr
        if self.accept("keyword", "mem"):
            self.expect("op", "[")
            addr = self._expression()
            self.expect("op", "]")
            return ast.Deref(addr)
        if self.accept("keyword", "addr"):
            self.expect("op", "(")
            name = self.expect("ident").value
            self.expect("op", ")")
            return ast.AddrOf(name)
        for fn in ("min", "max"):
            if self.accept("keyword", fn):
                self.expect("op", "(")
                left = self._expression()
                self.expect("op", ",")
                right = self._expression()
                self.expect("op", ")")
                return ast.BinOp(fn, left, right)
        if self.check("ident"):
            name = self.advance().value
            if self.check("op", "("):
                return self._call(name)
            if self.accept("op", "["):
                index = self._expression()
                self.expect("op", "]")
                return ast.Index(name, index)
            return ast.Var(name)
        raise ParseError("expected an expression, found %r"
                         % (self.current.value,), self.current)

    def _call(self, name):
        self.expect("op", "(")
        args = []
        if not self.check("op", ")"):
            args.append(self._expression())
            while self.accept("op", ","):
                args.append(self._expression())
        self.expect("op", ")")
        return ast.CallExpr(name, *args)


def parse_module(source, name="module"):
    """Parse mini-language *source* text into a Module."""
    return _Parser(tokenize(source)).parse_module(name)
