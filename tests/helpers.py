"""Helpers shared by several test modules and used by no program: the value
at t = 0 of a rational function in t, which the reference verifier in
test_structure reads its limits with."""

from superdegen.cyclo import C8_ZERO
from superdegen.polys import porder


class PoleAtZero(ArithmeticError):
    """Raised when evaluating at t = 0 a rational function with a pole there."""


def eval_at_zero(x):
    """The limit value of the TRat x as t -> 0; defined exactly when its valuation is >= 0."""
    if not x.num:
        return C8_ZERO
    a, b = porder(x.num), porder(x.den)
    if a < b:
        raise PoleAtZero(f"{x} has a pole at t = 0")
    if a > b:
        return C8_ZERO
    return x.num[a] / x.den[b]
