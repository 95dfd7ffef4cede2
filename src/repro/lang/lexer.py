"""Tokenizer for the mini-language's text front end.

The surface syntax (see :mod:`repro.lang.parser`) is a small C-like
language::

    array table[64] = {1, 2, 3};
    global counter = 0;

    func add(a, b) {
        return a + b;
    }

    func main() {
        var acc = 0;
        for (i = 0; i < 64; i += 1) {
            acc = acc + table[i];
        }
        while (acc > 100) { acc = acc - 100; }
        return add(acc, counter);
    }
"""

from repro.lang.ast import LangError


class Token:
    __slots__ = ("kind", "value", "line", "column")

    KINDS = ("ident", "number", "keyword", "op", "eof")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


KEYWORDS = frozenset({
    "func", "var", "global", "array", "return", "if", "else", "while",
    "do", "for", "break", "continue", "and", "or", "not", "min", "max",
    "mem", "addr",
})

#: Multi-character operators, longest first so maximal munch works.
_MULTI_OPS = ("<<=", ">>=", "==", "!=", "<=", ">=", "<<", ">>", "+=",
              "-=", "*=", "/=", "%=", "&=", "|=", "^=")
_SINGLE_OPS = "+-*/%&|^<>=(){}[];,!"


class LexerError(LangError):
    def __init__(self, message, line, column):
        super().__init__("line %d:%d: %s" % (line, column, message))
        self.line = line
        self.column = column


def tokenize(source):
    """Tokenize *source*, returning a list ending with an EOF token."""
    tokens = []
    line = 1
    column = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexerError("unterminated comment", line, column)
            skipped = source[i:end + 2]
            line += skipped.count("\n")
            if "\n" in skipped:
                column = len(skipped) - skipped.rfind("\n")
            else:
                column += len(skipped)
            i = end + 2
            continue
        if ch.isdigit():
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i].replace("_", "")
            try:
                value = int(text, 0)
            except ValueError:
                raise LexerError("bad number %r" % source[start:i],
                                 line, column) from None
            tokens.append(Token("number", value, line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            word = source[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, column))
            column += i - start
            continue
        matched = None
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                matched = op
                break
        if matched is None and ch in _SINGLE_OPS:
            matched = ch
        if matched is None:
            raise LexerError("unexpected character %r" % ch, line, column)
        tokens.append(Token("op", matched, line, column))
        i += len(matched)
        column += len(matched)
    tokens.append(Token("eof", None, line, column))
    return tokens
