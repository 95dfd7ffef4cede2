"""Tests for the mini-language text front end (lexer + parser)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import Machine
from repro.lang.compiler import compile_module
from repro.lang.lexer import LexerError, tokenize
from repro.lang.parser import ParseError, parse_module


def run_source(source):
    machine = Machine(compile_module(parse_module(source)))
    machine.run(max_instructions=2_000_000)
    return machine.regs[4]


class TestLexer:
    def test_tokens_and_positions(self):
        tokens = tokenize("func main() {\n  return 42;\n}")
        kinds = [t.kind for t in tokens]
        assert kinds[0] == "keyword"
        assert tokens[-1].kind == "eof"
        ret = next(t for t in tokens if t.value == "return")
        assert ret.line == 2

    def test_numbers(self):
        tokens = tokenize("0x10 1_000 7")
        assert [t.value for t in tokens[:-1]] == [16, 1000, 7]

    def test_comments_skipped(self):
        tokens = tokenize("# line\n1 // another\n/* block\nstill */ 2")
        assert [t.value for t in tokens if t.kind == "number"] == [1, 2]

    def test_multi_char_operators(self):
        tokens = tokenize("a <= b == c << 2")
        ops = [t.value for t in tokens if t.kind == "op"]
        assert ops == ["<=", "==", "<<"]

    def test_unterminated_comment(self):
        with pytest.raises(LexerError):
            tokenize("/* forever")

    def test_unexpected_character(self):
        with pytest.raises(LexerError):
            tokenize("a ~ b")


class TestParserPrograms:
    def test_minimal_program(self):
        assert run_source("func main() { return 41 + 1; }") == 42

    def test_precedence(self):
        assert run_source("func main() { return 2 + 3 * 4; }") == 14
        assert run_source("func main() { return (2 + 3) * 4; }") == 20
        assert run_source("func main() { return 1 + 2 << 1; }") == 6
        assert run_source("func main() { return 7 & 3 | 8; }") == 11

    def test_unary_operators(self):
        assert run_source("func main() { return -5 + 7; }") == 2
        assert run_source("func main() { return !0 + !7; }") == 1

    def test_variables_and_augmented_assign(self):
        src = """
        func main() {
            var x = 10;
            x += 5;
            x *= 2;
            x -= 6;
            return x;    # (10+5)*2-6
        }
        """
        assert run_source(src) == 24

    def test_arrays(self):
        src = """
        array data[8] = {5, 10, 15, 20};
        func main() {
            data[4] = data[0] + data[1];
            data[4] += 1;
            return data[4];
        }
        """
        assert run_source(src) == 16

    def test_globals(self):
        src = """
        global total = 7;
        func bump() { total += 3; return 0; }
        func main() { bump(); bump(); return total; }
        """
        assert run_source(src) == 13

    def test_for_loop(self):
        src = """
        func main() {
            var acc = 0;
            for (i = 0; i < 10; i += 1) { acc += i; }
            return acc;
        }
        """
        assert run_source(src) == 45

    def test_for_loop_negative_step(self):
        src = """
        func main() {
            var acc = 0;
            for (i = 5; i > 0; i -= 1) { acc += i; }
            return acc;
        }
        """
        assert run_source(src) == 15

    def test_while_and_break_continue(self):
        src = """
        func main() {
            var i = 0; var acc = 0;
            while (1) {
                i += 1;
                if (i == 9) { break; }
                if (i % 2 == 0) { continue; }
                acc += i;
            }
            return acc;   # 1+3+5+7
        }
        """
        assert run_source(src) == 16

    def test_do_while(self):
        src = """
        func main() {
            var n = 0;
            do { n += 1; } while (n < 4);
            return n;
        }
        """
        assert run_source(src) == 4

    def test_if_else_chain(self):
        src = """
        func classify(x) {
            if (x < 10) { return 1; }
            else if (x < 100) { return 2; }
            else { return 3; }
        }
        func main() {
            return classify(5) * 100 + classify(50) * 10 + classify(500);
        }
        """
        assert run_source(src) == 123

    def test_logical_and_or_not_shortcircuitless(self):
        src = """
        func main() {
            var a = 5; var b = 0;
            return (a and 3) * 10 + (b or 7 == 7) + (not b);
        }
        """
        assert run_source(src) == 12

    def test_min_max(self):
        assert run_source(
            "func main() { return min(3, 9) + max(3, 9); }") == 12

    def test_mem_and_addr(self):
        src = """
        array heap[16];
        func main() {
            var p = addr(heap) + 2;
            mem[p] = 99;
            return mem[p] + heap[2];
        }
        """
        assert run_source(src) == 198

    def test_recursion(self):
        src = """
        func fib(n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        func main() { return fib(11); }
        """
        assert run_source(src) == 89

    def test_store_augmented(self):
        src = """
        array a[4] = {1, 2, 3, 4};
        func main() {
            a[2] <<= 3;
            return a[2];
        }
        """
        assert run_source(src) == 24


class TestParserErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_module("func main() { return 1 }")

    def test_for_condition_must_match_variable(self):
        with pytest.raises(ParseError):
            parse_module(
                "func main() { for (i = 0; j < 5; i += 1) {} return 0; }")

    def test_for_direction_mismatch(self):
        with pytest.raises(ParseError):
            parse_module(
                "func main() { for (i = 0; i < 5; i -= 1) {} return 0; }")

    def test_bad_toplevel(self):
        with pytest.raises(ParseError):
            parse_module("banana main() {}")

    def test_unclosed_block(self):
        with pytest.raises(ParseError):
            parse_module("func main() { return 0;")


class TestParserDslEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 9))
    def test_expression_evaluation_matches_python(self, a, b, c):
        src = """
        func main() {
            var a = %d; var b = %d; var c = %d;
            return a * b + (a - b) * c + a %% c;
        }
        """ % (a, b, c)
        trunc_rem = a - int(a / c) * c
        assert run_source(src) == a * b + (a - b) * c + trunc_rem

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 10))
    def test_nested_loop_counts(self, outer, inner):
        src = """
        func main() {
            var n = 0;
            for (i = 0; i < %d; i += 1) {
                for (j = 0; j < %d; j += 1) { n += 1; }
            }
            return n;
        }
        """ % (outer, inner)
        assert run_source(src) == outer * inner
