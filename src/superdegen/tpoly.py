"""Polynomials and rational functions in the curve parameter t.

Coefficients are scalars (Cyclo8 or LambdaRat, freely mixed via coercion).
TRat is the fraction field used while transporting structure constants along
a variable basis change; the two operations that matter downstream are the
t-adic valuation at 0 and, when that is non-negative, evaluation at t = 0.
A TRat with denominator 1 plays the role of a plain polynomial in t.
"""

from __future__ import annotations

import math

from .cyclo import C8_ONE, C8_ZERO, Cyclo8
from .polys import padd, pdivmod, peval, pgcd, pmul, pneg, porder, pscale, pstrip
from .scalars import LambdaRat, scalar_literal

ORDER_INF = math.inf

_ONE_POLY = (C8_ONE,)


class PoleAtZero(ArithmeticError):
    """Raised when evaluating at t = 0 a rational function with a pole there."""


def _as_tpoly(x) -> tuple:
    if isinstance(x, (int, Cyclo8, LambdaRat)):
        if isinstance(x, int):
            x = Cyclo8(x)
        return () if x.is_zero() else (x,)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(z)(l)(t)")


class TRat:
    """Reduced ratio of polynomials in t with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_ONE_POLY):
        num, den = pstrip(num), pstrip(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), _ONE_POLY
            return
        g = pgcd(num, den, C8_ZERO)
        if len(g) > 1:
            num, _ = pdivmod(num, g, C8_ZERO)
            den, _ = pdivmod(den, g, C8_ZERO)
        lead = den[-1]
        if not (lead == 1):
            inv = 1 / lead
            num, den = pscale(num, inv), pscale(den, inv)
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num, den) -> "TRat":
        x = object.__new__(cls)
        x.num, x.den = num, den
        return x

    @classmethod
    def from_const(cls, c) -> "TRat":
        return cls._reduced(_as_tpoly(c), _ONE_POLY)

    @classmethod
    def var(cls) -> "TRat":
        return cls._reduced((C8_ZERO, C8_ONE), _ONE_POLY)

    @staticmethod
    def _coerce(x):
        if isinstance(x, TRat):
            return x
        if isinstance(x, (int, Cyclo8, LambdaRat)):
            return TRat._reduced(_as_tpoly(x), _ONE_POLY)
        return None

    def is_zero(self) -> bool:
        return not self.num

    def is_tpoly(self) -> bool:
        return self.den == _ONE_POLY

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == _ONE_POLY

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in t")
        return self.num[0] if self.num else C8_ZERO

    def order_at_zero(self):
        """t-adic valuation; ORDER_INF for the zero function."""
        if not self.num:
            return ORDER_INF
        return porder(self.num) - porder(self.den)

    def eval_at_zero(self):
        """The limit value as t -> 0; defined exactly when the valuation is >= 0."""
        if not self.num:
            return C8_ZERO
        a, b = porder(self.num), porder(self.den)
        if a < b:
            raise PoleAtZero(f"{self} has a pole at t = 0")
        if a > b:
            return C8_ZERO
        return self.num[a] / self.den[b]

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def __neg__(self):
        return TRat._reduced(pneg(self.num), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return TRat(padd(self.num, o.num), self.den)
        num = padd(pmul(self.num, o.den, C8_ZERO), pmul(o.num, self.den, C8_ZERO))
        return TRat(num, pmul(self.den, o.den, C8_ZERO))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return TRat(pmul(self.num, o.num, C8_ZERO), pmul(self.den, o.den, C8_ZERO))

    __rmul__ = __mul__

    def inverse(self) -> "TRat":
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(z)(l)(t)")
        return TRat(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "TRat":
        if n < 0:
            return self.inverse() ** (-n)
        out = TRAT_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"TRat({self})"

    def __str__(self):
        return trat_literal(self)


TRAT_ZERO = TRat.from_const(0)
TRAT_ONE = TRat.from_const(1)
T_VAR = TRat.var()


def as_trat(x) -> TRat:
    o = TRat._coerce(x)
    if o is None:
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(z)(l)(t)")
    return o


def substitute_lambda(x, lam: TRat) -> TRat:
    """Map a scalar into Q(z)(t) by the substitution l := lam(t)."""
    if isinstance(x, (int, Cyclo8)):
        return as_trat(x)
    num = peval(x.num, lam, TRAT_ZERO)
    den = peval(x.den, lam, TRAT_ZERO)
    if den.is_zero():
        raise ZeroDivisionError(f"denominator of {x} vanishes identically under the substitution")
    return num / den


def _tpoly_literal(cs) -> str:
    parts = []
    for k, c in enumerate(cs):
        if c.is_zero():
            continue
        lit = scalar_literal(c)
        if k == 0:
            body = lit if isinstance(c, Cyclo8) else f"({lit})"
        else:
            sym = "t" if k == 1 else f"t^{k}"
            if c == 1:
                body = sym
            elif c == -1:
                body = "-" + sym
            else:
                if "+" in lit[1:] or "-" in lit[1:] or "/" in lit or not isinstance(c, Cyclo8):
                    lit = f"({lit})"
                body = f"{lit}*{sym}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return "".join(parts) if parts else "0"


def trat_literal(x: TRat) -> str:
    num = _tpoly_literal(x.num)
    if x.den == _ONE_POLY:
        return num
    return f"({num})/({_tpoly_literal(x.den)})"
