"""Parser for the exact scalar literal syntax used by all data files.

Grammar: integers, the symbols z (eighth root of unity), l (family
parameter) and t (curve parameter), with + - * / ^ and parentheses.
"z-z^3" is the catalog's square root of 2.  Results take the smallest
sufficient domain: Cyclo8 (Q(z)), then LambdaRat (Q(z)(l)), then TRat
(Q(z)(l)(t)), the last two being polys.RatFunc in l and in t; no floating
point.  str() of any scalar is a literal that parses back to it.
"""

from __future__ import annotations

import re

from .cyclo import ZETA, Cyclo8
from .scalars import LAMBDA
from .tpoly import T_VAR


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*(?:(\d+)|([zlt])|([+\-*/^()]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {pos} in scalar literal {text!r}")
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("sym", m.group(2)))
        else:
            out.append(("op", m.group(3)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens, text):
        self.toks = tokens
        self.i = 0
        self.text = text

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def fail(self, why):
        raise ParseError(f"{why} in scalar literal {self.text!r}")

    def parse(self):
        v = self.expr()
        if self.i != len(self.toks):
            self.fail("trailing input")
        return v

    def expr(self):
        v = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.take()[1]
            w = self.term()
            v = v + w if op == "+" else v - w
        return v

    def term(self):
        v = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.take()[1]
            w = self.factor()
            v = v * w if op == "*" else v / w
        return v

    def factor(self):
        kind, val = self.peek()
        if (kind, val) == ("op", "-"):
            self.take()
            return -self.factor()
        if (kind, val) == ("op", "+"):
            self.take()
            return self.factor()
        return self.power()

    def power(self):
        v = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, n = self.take()
            if kind != "int":
                self.fail("exponent must be an integer")
            return v ** (sign * n)
        return v

    def atom(self):
        kind, val = self.take()
        if kind == "int":
            return Cyclo8(val)
        if kind == "sym":
            return {"z": ZETA, "l": LAMBDA, "t": T_VAR}[val]
        if (kind, val) == ("op", "("):
            v = self.expr()
            if self.take() != ("op", ")"):
                self.fail("missing closing parenthesis")
            return v
        self.fail(f"unexpected token {val!r}" if val else "unexpected end of input")


def parse_scalar(text: str):
    """Parse a literal; the result is Cyclo8, LambdaRat or TRat as needed."""
    if not isinstance(text, str):
        raise ParseError(f"scalar literal must be a string, got {type(text).__name__}")
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty scalar literal")
    return _Parser(toks, text).parse()
