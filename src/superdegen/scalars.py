"""The working scalar field: Q(z) itself, or rational functions in l over it.

A "scalar" anywhere in this package is either a Cyclo8 or a LambdaRat; the
two coerce automatically in mixed arithmetic, with Cyclo8 promoting into
LambdaRat.  Rational functions are kept reduced with a monic denominator at
every step, so structural equality is semantic equality.  A sum, difference
or product of two polynomials (denominator 1) is built without the gcd: the
denominator 1 is monic and prime to any numerator, so it is already reduced.
"""

from __future__ import annotations

from .cyclo import C8_ONE, C8_ZERO, Cyclo8, cyclo_literal
from .polys import padd, pdivmod, peval, pgcd, pmul, pneg, pscale, pstrip

_ONE_POLY = (C8_ONE,)


def _as_poly(x) -> tuple:
    if isinstance(x, Cyclo8):
        return () if x.is_zero() else (x,)
    if isinstance(x, int):
        return () if x == 0 else (Cyclo8(x),)
    raise TypeError(f"cannot coerce {type(x).__name__} into a scalar")


class LambdaRat:
    """Reduced ratio of polynomials in the family parameter l."""

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
        if lead != 1:
            inv = 1 / lead
            num, den = pscale(num, inv), pscale(den, inv)
        self.num, self.den = num, den

    @classmethod
    def _reduced(cls, num, den) -> "LambdaRat":
        x = object.__new__(cls)
        x.num, x.den = num, den
        return x

    @classmethod
    def from_const(cls, c) -> "LambdaRat":
        return cls._reduced(_as_poly(c), _ONE_POLY)

    @classmethod
    def var(cls) -> "LambdaRat":
        return cls._reduced((C8_ZERO, C8_ONE), _ONE_POLY)

    @staticmethod
    def _coerce(x):
        if isinstance(x, LambdaRat):
            return x
        if isinstance(x, (int, Cyclo8)):
            return LambdaRat._reduced(_as_poly(x), _ONE_POLY)
        return None

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == _ONE_POLY

    def constant_value(self) -> Cyclo8:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in l")
        return self.num[0] if self.num else C8_ZERO

    def substitute(self, value: Cyclo8) -> Cyclo8:
        """Evaluate at l = value; the denominator must not vanish there."""
        d = peval(self.den, value, C8_ZERO)
        if d.is_zero():
            raise ZeroDivisionError(f"denominator of {self} vanishes at the substituted value")
        return peval(self.num, value, C8_ZERO) * d.inverse()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None  # mutable-free but unhashable by design; never used as a key

    def __neg__(self):
        return LambdaRat._reduced(pneg(self.num), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return LambdaRat._reduced(padd(self.num, o.num), _ONE_POLY)
        if self.den == o.den:
            return LambdaRat(padd(self.num, o.num), self.den)
        num = padd(pmul(self.num, o.den, C8_ZERO), pmul(o.num, self.den, C8_ZERO))
        return LambdaRat(num, pmul(self.den, o.den, C8_ZERO))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return LambdaRat._reduced(padd(self.num, pneg(o.num)), _ONE_POLY)
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
        if len(self.den) == 1 and len(o.den) == 1:
            return LambdaRat._reduced(pmul(self.num, o.num, C8_ZERO), _ONE_POLY)
        return LambdaRat(pmul(self.num, o.num, C8_ZERO), pmul(self.den, o.den, C8_ZERO))

    __rmul__ = __mul__

    def inverse(self) -> "LambdaRat":
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(z)(l)")
        return LambdaRat(self.den, self.num)

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

    def __pow__(self, n: int) -> "LambdaRat":
        if n < 0:
            return self.inverse() ** (-n)
        out = LRAT_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"LambdaRat({self})"

    def __str__(self):
        return lrat_literal(self)


LRAT_ZERO = LambdaRat.from_const(0)
LRAT_ONE = LambdaRat.from_const(1)
LAMBDA = LambdaRat.var()


def as_lrat(x) -> LambdaRat:
    o = LambdaRat._coerce(x)
    if o is None:
        raise TypeError(f"cannot coerce {type(x).__name__} into Q(z)(l)")
    return o


def scalar_substitute(x, value: Cyclo8) -> Cyclo8:
    """Evaluate a scalar at l = value (a no-op for plain Cyclo8)."""
    return x if isinstance(x, Cyclo8) else x.substitute(value)


def _coeff_factor(c: Cyclo8, sym: str) -> str:
    if c == 1:
        return sym
    if c == -1:
        return "-" + sym
    lit = cyclo_literal(c)
    if "+" in lit[1:] or "-" in lit[1:] or "/" in lit:
        lit = f"({lit})"
    return f"{lit}*{sym}"


def _poly_literal(cs, var: str) -> str:
    parts = []
    for k, c in enumerate(cs):
        if c.is_zero():
            continue
        if k == 0:
            body = cyclo_literal(c)
        else:
            sym = var if k == 1 else f"{var}^{k}"
            body = _coeff_factor(c, sym)
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return "".join(parts) if parts else "0"


def lrat_literal(x: LambdaRat) -> str:
    num = _poly_literal(x.num, "l")
    if x.den == _ONE_POLY:
        return num
    return f"({num})/({_poly_literal(x.den, 'l')})"


def scalar_literal(x) -> str:
    return cyclo_literal(x) if isinstance(x, Cyclo8) else lrat_literal(x)
