"""Helpers shared by several test modules and used by no program: the value
at t = 0 of a rational function in t, which the reference verifier in
test_structure reads its limits with, the lift of a certificate's
pre-change and source constants into Q(z)(l)(t), with l := lambda(t) for a
family limit, which the references transport, a matrix product of the
references' own, apart from the program's `structure._matmul`, and a
catalog of two 2-dimensional entries with one certificate between them."""

from superdegen.cyclo import C8_ZERO
from superdegen.linalg import FIELD_TRAT, Matrix
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
    return Matrix.from_rows([[over_trat(x, lam) for x in row] for row in m.to_lists()], FIELD_TRAT)


def matmul(a, b):
    """The product of the matrices a and b over a's field, each entry the
    sum over k of a[r][k] * b[k][c]."""
    zero = a.field.zero
    return Matrix.from_rows([[sum((a.entries[r * a.cols + k] * b.entries[k * b.cols + c] for k in range(a.cols)), zero) for c in range(b.cols)]
                             for r in range(a.rows)], a.field)


def sc_over_trat(sc, lam):
    alpha = [[[over_trat(x, lam) for x in row] for row in plane] for plane in sc.alpha]
    gamma = [[over_trat(x, lam) for x in row] for row in sc.gamma]
    return StructureConstants(sc.n, alpha, gamma, FIELD_TRAT)


def _dim2_entry(label, alpha_lits, gamma_lits):
    return {"label": label, "n": 2, "component": 1, "parametric": False, "alpha": alpha_lits, "gamma": gamma_lits,
            "expected_stab_dim": 0, "expected_orbit_dim": 2}


# k-major alpha for n=2: [a^1_11, a^1_12, a^1_21, a^1_22, a^2_11, a^2_12, a^2_21, a^2_22]
DIM2_ENTRIES = [_dim2_entry("(kxk|1)", ["1", "0", "0", "1", "0", "1", "1", "0"], ["1", "0", "0", "-1"]),
                _dim2_entry("(dual|1)", ["1", "0", "0", "0", "0", "1", "1", "0"], ["1", "0", "0", "-1"])]
# the split pair of field factors specializes onto the dual numbers
DIM2_CERT = {"kind": "specialization", "source": "(kxk|1)", "target": "(dual|1)", "curve": ["1", "t", "0", "t"]}
