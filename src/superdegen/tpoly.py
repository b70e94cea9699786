"""Polynomials and rational functions in the curve parameter t.

Coefficients are scalars (Cyclo8 or LambdaRat, freely mixed via coercion).
TRat is the rational-function body of polys.RatFunc in t over Q(z)(l), the
fraction field used while transporting structure constants along a variable
basis change; the two operations it adds, and the ones that matter
downstream, are the t-adic valuation at 0 and, when that is non-negative,
evaluation at t = 0.  A TRat with denominator 1 plays the role of a plain
polynomial in t.
"""

from __future__ import annotations

import math

from .cyclo import C8_ZERO, Cyclo8
from .polys import ONE_POLY, RatFunc, peval, porder
from .scalars import LambdaRat

ORDER_INF = math.inf


class PoleAtZero(ArithmeticError):
    """Raised when evaluating at t = 0 a rational function with a pole there."""


class TRat(RatFunc):
    """Reduced ratio of polynomials in t with a monic denominator."""

    __slots__ = ()
    VAR, FIELD, CONSTANTS = "t", "Q(z)(l)(t)", (int, Cyclo8, LambdaRat)

    def __init__(self, num, den=ONE_POLY):
        self._normalise(num, den)

    def is_tpoly(self) -> bool:
        return self.den == ONE_POLY

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


TRAT_ZERO = TRat.coerce(0)
TRAT_ONE = TRat.coerce(1)
T_VAR = TRat.var()


def substitute_lambda(x, lam: TRat) -> TRat:
    """Map a scalar into Q(z)(t) by the substitution l := lam(t)."""
    if isinstance(x, (int, Cyclo8)):
        return TRat.coerce(x)
    num = peval(x.num, lam, TRAT_ZERO)
    den = peval(x.den, lam, TRAT_ZERO)
    if den.is_zero():
        raise ZeroDivisionError(f"denominator of {x} vanishes identically under the substitution")
    return num / den
