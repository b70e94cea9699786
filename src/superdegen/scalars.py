"""The working scalar field: Q(z) itself, or rational functions in l over it.

A "scalar" anywhere in this package is either a Cyclo8 or a LambdaRat; the
two coerce automatically in mixed arithmetic, with Cyclo8 promoting into
LambdaRat.  LambdaRat is the rational-function body of polys.RatFunc in the
family parameter l with Q(z) coefficients.  `RatFunc.substitute` puts a
value in for l: a Cyclo8 for a family member, a TRat for a family limit.
"""

from __future__ import annotations

from .cyclo import Cyclo8
from .polys import ONE_POLY, RatFunc


class LambdaRat(RatFunc):
    """Reduced ratio of polynomials in the family parameter l."""

    __slots__ = ()
    VAR, FIELD, CONSTANTS = "l", "Q(z)(l)", (int, Cyclo8)

    def __init__(self, num, den=ONE_POLY):
        self._normalise(num, den)


LRAT_ZERO = LambdaRat.coerce(0)
LRAT_ONE = LambdaRat.coerce(1)
LAMBDA = LambdaRat.var()
