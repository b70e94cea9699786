"""Helpers shared by several test modules and used by no program: the value
at t = 0 of a rational function in t, which the reference verifier in
test_structure reads its limits with, and the lift of a certificate's
pre-change and source constants into Q(z)(l)(t), with l := lambda(t) for a
family limit, which the references transport."""

from superdegen.cyclo import C8_ZERO
from superdegen.linalg import FIELD_TRAT
from superdegen.polys import porder
from superdegen.scalars import LambdaRat
from superdegen.structure import StructureConstants
from superdegen.tpoly import TRat


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


def over_trat(x, lam):
    """The scalar x in Q(z)(l)(t), with l := lam unless lam is None."""
    return TRat.coerce(x) if lam is None else LambdaRat.coerce(x).substitute(lam)


def matrix_over_trat(m, lam):
    return m.map_entries(lambda x: over_trat(x, lam), FIELD_TRAT)


def sc_over_trat(sc, lam):
    alpha = [[[over_trat(x, lam) for x in row] for row in plane] for plane in sc.alpha]
    gamma = [[over_trat(x, lam) for x in row] for row in sc.gamma]
    return StructureConstants(sc.n, alpha, gamma, FIELD_TRAT)
