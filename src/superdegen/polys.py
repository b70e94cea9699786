"""Dense univariate polynomials over an exact field, and their fractions.

Polynomials are tuples of coefficients, low degree first, with no trailing
zero.  The empty tuple is the zero polynomial.  Coefficients only need field
operator support plus is_zero().

RatFunc is the one body of the package's rational-function types: LambdaRat
(scalars.py, the family parameter l over Q(z)) and TRat (tpoly.py, the curve
parameter t over Q(z)(l)) name their variable, their field and the constants
they accept, and add only what is particular to them.  Values are kept
reduced with a monic denominator at every step, so structural equality is
semantic equality.  A sum, difference or product of two polynomials
(denominator 1) is built without the gcd: the denominator 1 is monic and
prime to any numerator, so it is already reduced.  str() prints the exact
literal syntax of literals.py.  `RatFunc.substitute` is the package's one
evaluation of a rational function: the catalog's family members, the
family limits' l := lambda(t), and `_coprime_at`'s values of l all use it.
Powers take `cyclo.power`, the one square-and-multiply loop.
"""

from __future__ import annotations

from itertools import count

from .cyclo import C8_ONE, C8_ZERO, Cyclo8, power

ONE_POLY = (C8_ONE,)


def pstrip(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return pstrip(out)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def pmul(a, b, zero) -> tuple:
    """Product of two polynomials.  Each output slot starts from its first
    product, not from zero plus it; a slot no product reaches is zero."""
    if not a or not b:
        return ()
    out = [None] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if not cb.is_zero():
                x, k = ca * cb, i + j
                out[k] = x if out[k] is None else out[k] + x
    return pstrip(zero if c is None else c for c in out)


def pscale(a, s) -> tuple:
    return pstrip(s * c for c in a)


def pdivmod(a, b, zero) -> tuple:
    """Quotient and remainder of a by b; b must have no trailing zero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(pstrip(a))
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    low = b[:-1]
    while len(a) >= len(b):
        k = len(a) - len(b)
        f = a.pop() * inv_lead
        q[k] = f
        for i, c in enumerate(low):
            a[k + i] = a[k + i] - f * c
        while a and a[-1].is_zero():
            a.pop()
    return tuple(q), tuple(a)


def pgcd(a, b, zero) -> tuple:
    """Monic gcd by the Euclidean algorithm.

    A nonzero constant operand makes the gcd 1 at once: most calls reduce a
    fraction over the denominator 1, and need neither a division nor the
    inverse of a coefficient.  Over Q(z)(l), where the remainders' l-degrees
    swell, the gcd is 1 when it is 1 at one value l0 of l (`_coprime_at`)."""
    a, b = pstrip(a), pstrip(b)
    if len(a) == 1 or len(b) == 1 or _coprime_at(a, b):
        return (zero + 1,)
    return _euclid(a, b, zero)


def _euclid(a, b, zero) -> tuple:
    while b:
        _, r = pdivmod(a, b, zero)
        a, b = b, r
    if not a:
        return ()
    return pscale(a, 1 / a[-1])


def _at(p, l0):
    """p with l := l0 in each coefficient; None if a denominator vanishes there."""
    try:
        return [c.substitute(l0) if isinstance(c, RatFunc) else c for c in p]
    except ZeroDivisionError:
        return None


def _coprime_at(a, b) -> bool:
    """Whether a and b, of degree 1 or more over Q(z)(l), are coprime by
    Brown's specialisation test (W. S. Brown, JACM 18, 1971).  Cleared of
    denominators, their primitive gcd G in Q(z)[l][t] has a leading
    coefficient dividing both of theirs, so at an l0 where no denominator
    and neither leading coefficient vanishes, G(l0) keeps its degree and
    divides a(l0) and b(l0).  If those are coprime over Q(z), G is constant.
    l0 runs 0, 1, 2, ..., the first such value is tried, and a nontrivial
    gcd there leaves the answer to Euclid.  Coefficients in Q(z) alone give
    False."""
    if not any(isinstance(c, RatFunc) for c in a + b):
        return False
    for l0 in count():
        sa, sb = _at(a, l0), _at(b, l0)
        if sa is not None and sb is not None and sa[-1] and sb[-1]:
            return len(_euclid(tuple(sa), pstrip(sb), C8_ZERO)) == 1


def peval(a, x, zero):
    """Horner evaluation; x may live in any ring the coefficients coerce into."""
    out = zero
    for c in reversed(a):
        out = out * x + c
    return out


def porder(a) -> int:
    """Multiplicity of the root 0; -1 for the zero polynomial."""
    for i, c in enumerate(a):
        if not c.is_zero():
            return i
    return -1


def _poly_literal(cs, var: str) -> str:
    """Literal of a polynomial in var; a coefficient that is a constant
    rational function prints as its constant, and any other rational
    function is always parenthesised."""
    parts = []
    for k, c in enumerate(cs):
        if c.is_zero():
            continue
        if isinstance(c, RatFunc) and c.is_constant():
            c = c.num[0]
        lit = str(c)
        if not isinstance(c, Cyclo8) or (k and ("+" in lit[1:] or "-" in lit[1:] or "/" in lit)):
            lit = f"({lit})"
        if k == 0:
            body = lit
        else:
            sym = var if k == 1 else f"{var}^{k}"
            body = sym if c == 1 else "-" + sym if c == -1 else f"{lit}*{sym}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return "".join(parts) if parts else "0"


class RatFunc:
    """Reduced ratio of polynomials in VAR with a monic denominator.

    A subclass sets VAR (the variable's symbol), FIELD (the field's name) and
    CONSTANTS (the types that embed as constant polynomials).  It defines its
    own __init__, which calls _normalise, so constructions of each type can be
    counted apart (perfbench/layers.py wraps each class's own __init__).
    Subclasses are siblings: an operator returns NotImplemented on a value it
    cannot lift, so l*t falls through to TRat.__rmul__, which lifts l."""

    __slots__ = ("num", "den")
    VAR = FIELD = ""
    CONSTANTS = ()

    def _normalise(self, num, den):
        num, den = pstrip(num), pstrip(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num, self.den = (), ONE_POLY
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
    def _reduced(cls, num, den):
        x = object.__new__(cls)
        x.num, x.den = num, den
        return x

    @classmethod
    def var(cls):
        return cls._reduced((C8_ZERO, C8_ONE), ONE_POLY)

    @classmethod
    def _lift(cls, x):
        """x as an element of cls, or None when x is not one of its scalars.
        The operators test for an operand of their own type before calling
        this: that is the common case, and it then costs no call."""
        if isinstance(x, cls):
            return x
        if not isinstance(x, cls.CONSTANTS):
            return None
        if isinstance(x, int):
            x = Cyclo8(x)
        return cls._reduced(() if x.is_zero() else (x,), ONE_POLY)

    @classmethod
    def coerce(cls, x):
        o = x if type(x) is cls else cls._lift(x)
        if o is None:
            raise TypeError(f"cannot coerce {type(x).__name__} into {cls.FIELD}")
        return o

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == ONE_POLY

    def constant_value(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant in {self.VAR}")
        return self.num[0] if self.num else C8_ZERO

    def __eq__(self, other) -> bool:
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None  # unhashable by design; never used as a key

    def __neg__(self):
        return self._reduced(pneg(self.num), self.den)

    def __add__(self, other):
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return self._reduced(padd(self.num, o.num), ONE_POLY)
        if self.den == o.den:
            return type(self)(padd(self.num, o.num), self.den)
        num = padd(pmul(self.num, o.den, C8_ZERO), pmul(o.num, self.den, C8_ZERO))
        return type(self)(num, pmul(self.den, o.den, C8_ZERO))

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return self._reduced(padd(self.num, pneg(o.num)), ONE_POLY)
        return self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return self._reduced(pmul(self.num, o.num, C8_ZERO), ONE_POLY)
        return type(self)(pmul(self.num, o.num, C8_ZERO), pmul(self.den, o.den, C8_ZERO))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError(f"inverse of 0 in {self.FIELD}")
        return type(self)(self.den, self.num)

    def __truediv__(self, other):
        o = other if type(other) is type(self) else self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        return power(self, n, self._reduced(ONE_POLY, ONE_POLY))

    def substitute(self, value):
        """Evaluate at VAR = value, a Cyclo8, an int or a TRat; the result
        lies in value's field.  ZeroDivisionError when the denominator
        vanishes there."""
        zero = 0 * value
        d = peval(self.den, value, zero)
        if d.is_zero():
            raise ZeroDivisionError(f"{self} has a pole at {self.VAR} = {value}")
        return peval(self.num, value, zero) / d

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def __str__(self):
        num = _poly_literal(self.num, self.VAR)
        if self.den == ONE_POLY:
            return num
        return f"({num})/({_poly_literal(self.den, self.VAR)})"
