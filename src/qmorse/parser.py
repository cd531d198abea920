"""Recursive-descent parser for the CLI expression language.

Grammar (implicit multiplication is rejected on purpose: in a non-commutative
algebra a silently reordered `q p` would be a catastrophic footgun):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' factor) | ('/' NUMBER))*
    factor := atom ['^' UINT]
    atom   := NUMBER | SYMBOL | '(' expr ')' | '-' atom

Division exists only by nonzero rational literals (exact central scaling).
NUMBER is an integer or a rational literal like 3/4; SYMBOL is one of
q p a ad hbar t i sqrt2, plus whitelisted parameter names in symbol-family
contexts.  Errors carry the byte offset and the expected token set.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import DomainError, ParseError
from .field import Coefficient, I, SQRT2
from .series import QSeries, a_op, adag, const, hbar_op, p_op, q_op, t_op

_OPERATOR_SYMBOLS = ("q", "p", "a", "ad", "hbar", "t")
# Deepest nesting of '(' and unary '-' the recursive descent accepts; each
# '(' level costs four interpreter frames, well inside the default limit.
MAX_NESTING = 100
_COEFF_SYMBOLS = {"i": I, "sqrt2": SQRT2}


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_ident_start(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_"


def _int_literal(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:  # beyond the interpreter's int string-digit limit
        raise ParseError(
            f"integer literal of {end - start} digits is too long", start, ()
        ) from None


def tokenize(text: str):
    tokens = []
    pos = 0
    size = len(text)
    while pos < size:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if _is_digit(ch):
            start = pos
            while pos < size and _is_digit(text[pos]):
                pos += 1
            num = _int_literal(text, start, pos)
            if pos < size and text[pos] == "/":
                den_start = pos + 1
                pos += 1
                while pos < size and _is_digit(text[pos]):
                    pos += 1
                if pos == den_start:
                    raise ParseError("malformed rational literal", pos, ("digit",))
                den = _int_literal(text, den_start, pos)
                if den == 0:
                    raise ParseError("zero denominator", den_start, ())
                tokens.append(("num", Fraction(num, den), start))
            else:
                tokens.append(("num", Fraction(num), start))
            continue
        if _is_ident_start(ch):
            start = pos
            while pos < size and (_is_ident_start(text[pos]) or _is_digit(text[pos])):
                pos += 1
            tokens.append(("ident", text[start:pos], start))
            continue
        if ch in "+-*^()/":
            tokens.append(("op", ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos, ())
    tokens.append(("eof", None, size))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, ch):
        kind, val, off = self.peek()
        if kind == "op" and val == ch:
            return self.advance()
        raise ParseError(f"expected {ch!r}", off, (repr(ch),))

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "eof":
            if kind in ("num", "ident") or (kind == "op" and val == "("):
                raise ParseError(
                    "implicit multiplication not allowed", off, ("'+'", "'-'", "'*'", "end")
                )
            raise ParseError(f"unexpected token {val!r}", off, ("'+'", "'-'", "'*'", "end"))
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                node = ("add" if val == "+" else "sub", node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val == "*":
                self.advance()
                node = ("mul", node, self.factor())
            elif kind == "op" and val == "/":
                # scalar division by a nonzero rational literal only
                self.advance()
                kind, val, off = self.peek()
                if kind != "num":
                    raise ParseError(
                        "divisor must be a rational literal", off, ("number",)
                    )
                if val == 0:
                    raise ParseError("division by zero literal", off, ())
                self.advance()
                node = ("mul", node, ("num", Fraction(1) / val))
            elif kind in ("num", "ident") or (kind == "op" and val == "("):
                raise ParseError(
                    "implicit multiplication not allowed", off, ("'+'", "'-'", "'*'", "end")
                )
            else:
                return node

    def factor(self):
        node = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            kind, val, off = self.peek()
            if kind != "num" or val.denominator != 1 or val < 0:
                raise ParseError(
                    "exponent must be a non-negative integer literal", off, ("uint",)
                )
            self.advance()
            return ("pow", node, int(val))
        return node

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return ("num", val)
        if kind == "ident":
            return ("sym", val)
        if kind == "op" and val in "(-":
            if self.depth == MAX_NESTING:
                raise ParseError(f"nesting deeper than {MAX_NESTING} levels", off, ())
            self.depth += 1
            if val == "(":
                node = self.expr()
                self.expect_op(")")
            else:
                node = ("neg", self.atom())
            self.depth -= 1
            return node
        raise ParseError(
            f"unexpected token {val!r}", off, ("number", "symbol", "'('", "'-'")
        )


def parse_expr(text: str):
    """Parse the documented grammar into an AST (tuples)."""
    return _Parser(text).parse()


def _left_spine(node):
    """Split a left-deep chain of ``add``/``sub``/``mul`` nodes without recursion.

    Returns the leftmost operand and the ``(tag, right operand)`` steps in
    evaluation order.  A long ``+`` or ``*`` chain parses into a left spine
    as deep as the chain, so the evaluators walk it with a loop.  A right
    operand is a term or a factor: its own spine is walked the same way, and
    its nesting is bounded by `MAX_NESTING`.
    """
    steps = []
    while node[0] in ("add", "sub", "mul"):
        steps.append((node[0], node[2]))
        node = node[1]
    steps.reverse()
    return node, steps


def elaborate(ast, t_cap, weight_cap) -> QSeries:
    """Evaluate an AST in the operator algebra at the given caps."""
    table = {
        "q": q_op(t_cap, weight_cap),
        "p": p_op(t_cap, weight_cap),
        "a": a_op(t_cap, weight_cap),
        "ad": adag(t_cap, weight_cap),
        "hbar": hbar_op(t_cap, weight_cap),
        "t": t_op(t_cap, weight_cap),
    }
    binary = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}

    def ev(node):
        node, steps = _left_spine(node)
        out = operand(node)
        for tag, rhs in steps:
            out = binary[tag](out, ev(rhs))
        return out

    def operand(node):
        tag = node[0]
        if tag == "num":
            return const(node[1], t_cap, weight_cap)
        if tag == "sym":
            name = node[1]
            if name in table:
                return table[name]
            if name in _COEFF_SYMBOLS:
                return const(_COEFF_SYMBOLS[name], t_cap, weight_cap)
            raise DomainError(f"unknown symbol {name!r}")
        if tag == "neg":
            return -ev(node[1])
        if tag == "pow":
            return ev(node[1]) ** node[2]
        raise AssertionError(f"unknown AST node {tag!r}")

    return ev(ast)


def elaborate_plane(ast, params=()):
    """Evaluate an AST as a commutative plane polynomial family.

    q maps to x and p to y (the classical symbol coordinates); `params` are
    extra commuting variable names.  Returns {(ex, ey, *param exps):
    Coefficient}.
    """
    params = tuple(params)
    arity = 2 + len(params)

    def unit(exp_index=None, coef=None):
        exp = [0] * arity
        if exp_index is not None:
            exp[exp_index] = 1
        return {tuple(exp): coef if coef is not None else Coefficient(1)}

    def neg(A):
        return {e: -c for e, c in A.items()}

    def add(A, B):
        out = dict(A)
        for e, c in B.items():
            s = out.get(e, Coefficient(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        return out

    def mul(A, B):
        out = {}
        for e1, c1 in A.items():
            for e2, c2 in B.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = c1 * c2
                acc = out.get(e)
                s = v if acc is None else acc + v
                if s:
                    out[e] = s
                elif acc is not None:
                    del out[e]
        return out

    binary = {"add": add, "sub": lambda A, B: add(A, neg(B)), "mul": mul}

    def ev(node):
        node, steps = _left_spine(node)
        out = operand(node)
        for tag, rhs in steps:
            out = binary[tag](out, ev(rhs))
        return out

    def operand(node):
        tag = node[0]
        if tag == "num":
            return unit(coef=Coefficient(node[1]))
        if tag == "sym":
            name = node[1]
            if name == "q":
                return unit(0)
            if name == "p":
                return unit(1)
            if name in params:
                return unit(2 + params.index(name))
            if name in _COEFF_SYMBOLS:
                return unit(coef=_COEFF_SYMBOLS[name])
            if name in _OPERATOR_SYMBOLS:
                raise DomainError(f"operator symbol {name!r} not allowed in plane symbols")
            raise DomainError(f"unknown symbol {name!r}")
        if tag == "neg":
            return neg(ev(node[1]))
        if tag == "pow":
            out = unit()
            base = ev(node[1])
            for _ in range(node[2]):
                out = mul(out, base)
            return out
        raise AssertionError(f"unknown AST node {tag!r}")

    return ev(ast)
