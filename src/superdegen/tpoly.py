"""Polynomials and rational functions in the curve parameter t.

Coefficients are scalars (Cyclo8 or LambdaRat, freely mixed via coercion).
TRat is the rational-function body of polys.RatFunc in t over Q(z)(l), the
fraction field used while transporting structure constants along a variable
basis change; the operation it adds, and the one that matters downstream,
is the t-adic valuation at 0 (certificates read a limit at t = 0 off the
lowest coefficients, `certs._lowest`).  A TRat with denominator 1 plays the
role of a plain polynomial in t.  A family limit puts a TRat in for the
family parameter l with `LambdaRat.substitute`.
"""

from __future__ import annotations

import math

from .cyclo import Cyclo8
from .polys import ONE_POLY, RatFunc, porder
from .scalars import LambdaRat

ORDER_INF = math.inf


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


TRAT_ZERO = TRat.coerce(0)
TRAT_ONE = TRat.coerce(1)
T_VAR = TRat.var()
