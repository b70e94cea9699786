"""The working scalar field: Q(z) itself, or rational functions in l over it.

A "scalar" anywhere in this package is either a Cyclo8 or a LambdaRat; the
two coerce automatically in mixed arithmetic, with Cyclo8 promoting into
LambdaRat.  LambdaRat is the rational-function body of polys.RatFunc in the
family parameter l with Q(z) coefficients, plus evaluation at a value of l.
"""

from __future__ import annotations

from .cyclo import C8_ZERO, Cyclo8
from .polys import ONE_POLY, RatFunc, peval


class LambdaRat(RatFunc):
    """Reduced ratio of polynomials in the family parameter l."""

    __slots__ = ()
    VAR, FIELD, CONSTANTS = "l", "Q(z)(l)", (int, Cyclo8)

    def __init__(self, num, den=ONE_POLY):
        self._normalise(num, den)

    def substitute(self, value: Cyclo8) -> Cyclo8:
        """Evaluate at l = value; the denominator must not vanish there."""
        d = peval(self.den, value, C8_ZERO)
        if d.is_zero():
            raise ZeroDivisionError(f"denominator of {self} vanishes at the substituted value")
        return peval(self.num, value, C8_ZERO) * d.inverse()


LRAT_ZERO = LambdaRat.coerce(0)
LRAT_ONE = LambdaRat.coerce(1)
LAMBDA = LambdaRat.var()


def scalar_substitute(x, value: Cyclo8) -> Cyclo8:
    """Evaluate a scalar at l = value (a no-op for plain Cyclo8)."""
    return x if isinstance(x, Cyclo8) else x.substitute(value)
