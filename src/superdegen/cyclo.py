"""Exact arithmetic in the eighth cyclotomic field Q(z), z^4 = -1.

An element (n0 + n1*z + n2*z^2 + n3*z^3) / d is stored as four Python int
numerators ``c = (n0, n1, n2, n3)`` over one common int denominator ``d``,
the representation FLINT/Antic uses for number-field elements.  Every
element is kept in canonical form: d > 0 and gcd(n0, n1, n2, n3, d) = 1, so
zero is (0, 0, 0, 0) / 1 and structural equality is semantic equality.
This field contains every constant the catalog and the degeneration
certificates need: z^2 is a square root of -1, z - z^3 squares to 2 and
z + z^3 squares to -2.

Most operands are rational (n1 = n2 = n3 = 0).  Counted over one pass of
each perfbench workload (seed 1): on `atlas`, 118 612 of the 119 040
products and 166 567 of the 166 727 sums and differences of two Cyclo8
have both operands in Q; on `fuzz-fixed` (707 119 operations) and
`fuzz-family` (937 116) all of them do.  So `+`, `-`, `*` and `inverse`
take a rational branch when every operand is rational: they work on
(n0, d) alone, the way `fractions.Fraction` does, with gcds of two ints
where the general case multiplies in Z[z] (16 products) and takes a gcd of
five.  The branch gives the same canonical form, zero as (0, 0, 0, 0) / 1
included.
"""

from __future__ import annotations

from math import gcd
from numbers import Rational


def _imul(a, b) -> tuple:
    """Product of two integer coefficient vectors, reduced by z^4 = -1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
    )


def _adjoint(c) -> tuple:
    """(p, N) with c * p = N: p is the product of the three Galois conjugates
    of the nonzero integer vector c (z -> z^3, z^5, z^7) and N its field norm."""
    a0, a1, a2, a3 = c
    p = _imul(_imul((a0, a3, -a2, a1), (a0, -a1, a2, -a3)), (a0, -a3, -a2, -a1))
    n0, n1, n2, n3 = _imul(c, p)
    assert not (n1 or n2 or n3), "field norm must be rational"
    return p, n0


class Cyclo8:
    __slots__ = ("c", "d")

    def __init__(self, a0=0, a1=0, a2=0, a3=0):
        if type(a0) is int and type(a1) is int and type(a2) is int and type(a3) is int:
            self.c, self.d = (a0, a1, a2, a3), 1
            return
        coeffs = (a0, a1, a2, a3)
        d = 1
        for a in coeffs:
            if not isinstance(a, Rational):
                raise TypeError(f"Q(z) coefficients must be rational, got {type(a).__name__}")
            d = d * a.denominator // gcd(d, a.denominator)
        x = _make(*(int(a.numerator) * (d // a.denominator) for a in coeffs), d)
        self.c, self.d = x.c, x.d

    def is_zero(self) -> bool:
        a0, a1, a2, a3 = self.c
        return not (a0 or a1 or a2 or a3)

    def __bool__(self) -> bool:
        return self.c != (0, 0, 0, 0)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclo8):
            return self.d == other.d and self.c == other.c
        if isinstance(other, int):
            a0, a1, a2, a3 = self.c
            return self.d == 1 and a0 == other and not (a1 or a2 or a3)
        return NotImplemented

    def __hash__(self):
        return hash((self.c, self.d))

    def __neg__(self) -> "Cyclo8":
        a0, a1, a2, a3 = self.c
        return _raw((-a0, -a1, -a2, -a3), self.d)

    def __add__(self, other):
        if isinstance(other, Cyclo8):
            return _sum(self.c, self.d, other.c, other.d)
        if isinstance(other, int):
            a0, a1, a2, a3 = self.c
            return _raw((a0 + other * self.d, a1, a2, a3), self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Cyclo8):
            a0, a1, a2, a3 = self.c
            b0, b1, b2, b3 = other.c
            if not (a1 or a2 or a3 or b1 or b2 or b3):
                return _qsum(a0, self.d, -b0, other.d)
            return _sum(self.c, self.d, (-b0, -b1, -b2, -b3), other.d)
        if isinstance(other, int):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Cyclo8):
            a0, a1, a2, a3 = self.c
            b0, b1, b2, b3 = other.c
            if not (a1 or a2 or a3 or b1 or b2 or b3):
                return _qmul(a0, self.d, b0, other.d)
            return _make(*_imul(self.c, other.c), self.d * other.d)
        if isinstance(other, int):
            g = gcd(other, self.d)
            k = other // g
            a0, a1, a2, a3 = self.c
            return _raw((a0 * k, a1 * k, a2 * k, a3 * k), self.d // g)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo8":
        """Multiplicative inverse, via the product of the three conjugates;
        d / n0 for a rational n0 / d."""
        a0, a1, a2, a3 = self.c
        if not (a1 or a2 or a3):
            if not a0:
                raise ZeroDivisionError("inverse of 0 in Q(z)")
            return _raw((self.d, 0, 0, 0), a0) if a0 > 0 else _raw((-self.d, 0, 0, 0), -a0)
        p, norm = _adjoint(self.c)
        d = self.d
        return _make(p[0] * d, p[1] * d, p[2] * d, p[3] * d, norm)

    def __truediv__(self, other):
        if isinstance(other, Cyclo8):
            return self * other.inverse()
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError("division by 0")
            return _make(*self.c, self.d * other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int) -> "Cyclo8":
        if n < 0:
            return self.inverse() ** (-n)
        out = C8_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self):
        return f"Cyclo8({self})"

    def __str__(self):
        return cyclo_literal(self)


def _raw(c: tuple, d: int) -> Cyclo8:
    """Wrap numerators and denominator that are already in canonical form."""
    x = object.__new__(Cyclo8)
    x.c = c
    x.d = d
    return x


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> Cyclo8:
    """The canonical form of (n0 + n1*z + n2*z^2 + n3*z^3) / d, d nonzero."""
    if d < 0:
        n0, n1, n2, n3, d = -n0, -n1, -n2, -n3, -d
    g = gcd(n0, n1, n2, n3, d)
    if g != 1:
        n0, n1, n2, n3, d = n0 // g, n1 // g, n2 // g, n3 // g, d // g
    return _raw((n0, n1, n2, n3), d)


def _qmul(a0: int, ad: int, b0: int, bd: int) -> Cyclo8:
    """(a0 / ad) * (b0 / bd) for canonical rational operands, as in
    Fraction._mul: cancel across before multiplying, and the product is
    canonical.  A zero operand is 0 / 1, so a zero product is 0 / 1 too."""
    g = gcd(a0, bd)
    if g > 1:
        a0, bd = a0 // g, bd // g
    g = gcd(b0, ad)
    if g > 1:
        b0, ad = b0 // g, ad // g
    return _raw((a0 * b0, 0, 0, 0), ad * bd)


def _qsum(a0: int, ad: int, b0: int, bd: int) -> Cyclo8:
    """a0 / ad + b0 / bd for canonical rational operands, as in
    Fraction._add: only a prime dividing g = gcd(ad, bd) can divide both the
    sum's numerator and ad * bd / g.  A zero sum comes out 0 / 1, because
    canonical operands of opposite value have equal denominators."""
    if ad == bd == 1:
        return _raw((a0 + b0, 0, 0, 0), 1)
    g = gcd(ad, bd)
    if g == 1:
        return _raw((a0 * bd + b0 * ad, 0, 0, 0), ad * bd)
    s = ad // g
    n = a0 * (bd // g) + b0 * s
    g2 = gcd(n, g)
    if g2 == 1:
        return _raw((n, 0, 0, 0), s * bd)
    return _raw((n // g2, 0, 0, 0), s * (bd // g2))


def _sum(a: tuple, ad: int, b: tuple, bd: int) -> Cyclo8:
    """a / ad + b / bd for canonical operands."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if ad == bd == 1:
        return _raw((a0 + b0, a1 + b1, a2 + b2, a3 + b3), 1)
    if not (a1 or a2 or a3 or b1 or b2 or b3):
        return _qsum(a0, ad, b0, bd)
    if ad == bd:
        return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
    g = gcd(ad, bd)
    sa, sb = bd // g, ad // g
    n = (a0 * sa + b0 * sb, a1 * sa + b1 * sb, a2 * sa + b2 * sb, a3 * sa + b3 * sb)
    if g == 1:
        # a prime dividing ad does not divide bd, so it cannot divide every
        # numerator: the sum is already canonical (as in Fraction.__add__)
        return _raw(n, ad * bd)
    return _make(*n, ad * sa)


def _q_literal(num: int, den: int) -> str:
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def cyclo_literal(x: Cyclo8) -> str:
    """Render in the exact literal syntax accepted by the parser."""
    parts = []
    d = x.d
    for k, a in enumerate(x.c):
        if not a:
            continue
        sym = ("", "z", "z^2", "z^3")[k]
        if k == 0:
            body = _q_literal(a, d)
        elif a == d:
            body = sym
        elif a == -d:
            body = "-" + sym
        else:
            body = f"{_q_literal(a, d)}*{sym}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return "".join(parts) if parts else "0"


C8_ZERO = Cyclo8(0)
C8_ONE = Cyclo8(1)
ZETA = Cyclo8(0, 1)
I_UNIT = ZETA * ZETA  # z^2, a square root of -1
SQRT2 = Cyclo8(0, 1, 0, -1)  # z - z^3
SQRTM2 = Cyclo8(0, 1, 0, 1)  # z + z^3
