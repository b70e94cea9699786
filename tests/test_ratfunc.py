"""The shared rational-function body (polys.RatFunc) against the two bodies
it replaced, kept here as the reference: _ReferenceLambdaRat and
_ReferenceTRat are the former scalars.LambdaRat and tpoly.TRat, each with
its own constructor, coercion, operators and literal printer.

Random expressions in int, Cyclo8, l and t (TRat entries may carry
LambdaRat coefficients) are evaluated with both, and the results must agree
structurally (num and den, coefficient by coefficient), in their printed
literal, and under substitute (at a Cyclo8 and at a TRat), order_at_zero and
the value at t = 0 (`helpers.eval_at_zero`); a ZeroDivisionError or PoleAtZero on one side must be raised
on the other.

The former polys.pmul, which started every output slot from zero, is kept
as _reference_pmul; the products of the current one must be the same
coefficient by coefficient and print the same.
"""

import math
import operator
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdegen import polys
from superdegen.cyclo import C8_ONE, C8_ZERO, ZETA, Cyclo8, cyclo_literal
from superdegen.polys import padd, pdivmod, peval, pgcd, pmul, pneg, porder, pscale, pstrip
from superdegen.scalars import LAMBDA, LambdaRat
from superdegen.tpoly import T_VAR, TRat

from helpers import PoleAtZero, eval_at_zero

_ONE_POLY = (C8_ONE,)


# ------------------------------------------------------------ the reference

def _as_poly(x) -> tuple:
    if isinstance(x, Cyclo8):
        return () if x.is_zero() else (x,)
    if isinstance(x, int):
        return () if x == 0 else (Cyclo8(x),)
    raise TypeError(f"cannot coerce {type(x).__name__} into a scalar")


class _ReferenceLambdaRat:
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
    def _reduced(cls, num, den):
        x = object.__new__(cls)
        x.num, x.den = num, den
        return x

    @classmethod
    def from_const(cls, c):
        return cls._reduced(_as_poly(c), _ONE_POLY)

    @classmethod
    def var(cls):
        return cls._reduced((C8_ZERO, C8_ONE), _ONE_POLY)

    @staticmethod
    def _coerce(x):
        if isinstance(x, _ReferenceLambdaRat):
            return x
        if isinstance(x, (int, Cyclo8)):
            return _ReferenceLambdaRat._reduced(_as_poly(x), _ONE_POLY)
        return None

    def is_zero(self):
        return not self.num

    def is_constant(self):
        return len(self.num) <= 1 and self.den == _ONE_POLY

    def substitute(self, value):
        d = peval(self.den, value, C8_ZERO)
        if d.is_zero():
            raise ZeroDivisionError(f"denominator of {self} vanishes at the substituted value")
        return peval(self.num, value, C8_ZERO) * d.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def __neg__(self):
        return _ReferenceLambdaRat._reduced(pneg(self.num), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return _ReferenceLambdaRat._reduced(padd(self.num, o.num), _ONE_POLY)
        if self.den == o.den:
            return _ReferenceLambdaRat(padd(self.num, o.num), self.den)
        num = padd(pmul(self.num, o.den, C8_ZERO), pmul(o.num, self.den, C8_ZERO))
        return _ReferenceLambdaRat(num, pmul(self.den, o.den, C8_ZERO))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den) == 1 and len(o.den) == 1:
            return _ReferenceLambdaRat._reduced(padd(self.num, pneg(o.num)), _ONE_POLY)
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
            return _ReferenceLambdaRat._reduced(pmul(self.num, o.num, C8_ZERO), _ONE_POLY)
        return _ReferenceLambdaRat(pmul(self.num, o.num, C8_ZERO), pmul(self.den, o.den, C8_ZERO))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(z)(l)")
        return _ReferenceLambdaRat(self.den, self.num)

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

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _REF_LRAT_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        return _ref_lrat_literal(self)


_REF_LRAT_ONE = _ReferenceLambdaRat.from_const(1)


def _coeff_factor(c, sym):
    if c == 1:
        return sym
    if c == -1:
        return "-" + sym
    lit = cyclo_literal(c)
    if "+" in lit[1:] or "-" in lit[1:] or "/" in lit:
        lit = f"({lit})"
    return f"{lit}*{sym}"


def _ref_poly_literal(cs, var):
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


def _ref_lrat_literal(x):
    num = _ref_poly_literal(x.num, "l")
    if x.den == _ONE_POLY:
        return num
    return f"({num})/({_ref_poly_literal(x.den, 'l')})"


def _ref_scalar_literal(x):
    return cyclo_literal(x) if isinstance(x, Cyclo8) else _ref_lrat_literal(x)


def _as_tpoly(x):
    if isinstance(x, (int, Cyclo8, _ReferenceLambdaRat)):
        if isinstance(x, int):
            x = Cyclo8(x)
        return () if x.is_zero() else (x,)
    raise TypeError(f"cannot coerce {type(x).__name__} into Q(z)(l)(t)")


class _ReferenceTRat:
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
    def from_const(cls, c):
        return cls._reduced(_as_tpoly(c), _ONE_POLY)

    @classmethod
    def var(cls):
        return cls._reduced((C8_ZERO, C8_ONE), _ONE_POLY)

    @staticmethod
    def _coerce(x):
        if isinstance(x, _ReferenceTRat):
            return x
        if isinstance(x, (int, Cyclo8, _ReferenceLambdaRat)):
            return _ReferenceTRat._reduced(_as_tpoly(x), _ONE_POLY)
        return None

    def is_zero(self):
        return not self.num

    def order_at_zero(self):
        if not self.num:
            return math.inf
        return porder(self.num) - porder(self.den)

    def eval_at_zero(self):
        if not self.num:
            return C8_ZERO
        a, b = porder(self.num), porder(self.den)
        if a < b:
            raise PoleAtZero(f"{self} has a pole at t = 0")
        if a > b:
            return C8_ZERO
        return self.num[a] / self.den[b]

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def __neg__(self):
        return _ReferenceTRat._reduced(pneg(self.num), self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _ReferenceTRat(padd(self.num, o.num), self.den)
        num = padd(pmul(self.num, o.den, C8_ZERO), pmul(o.num, self.den, C8_ZERO))
        return _ReferenceTRat(num, pmul(self.den, o.den, C8_ZERO))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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
        return _ReferenceTRat(pmul(self.num, o.num, C8_ZERO), pmul(self.den, o.den, C8_ZERO))

    __rmul__ = __mul__

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of 0 in Q(z)(l)(t)")
        return _ReferenceTRat(self.den, self.num)

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

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = _REF_TRAT_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self):
        return _ref_trat_literal(self)


_REF_TRAT_ZERO = _ReferenceTRat.from_const(0)
_REF_TRAT_ONE = _ReferenceTRat.from_const(1)


def _ref_substitute_lambda(x, lam):
    if isinstance(x, (int, Cyclo8)):
        return _ReferenceTRat._coerce(x)
    num = peval(x.num, lam, _REF_TRAT_ZERO)
    den = peval(x.den, lam, _REF_TRAT_ZERO)
    if den.is_zero():
        raise ZeroDivisionError(f"denominator of {x} vanishes identically under the substitution")
    return num / den


def _ref_tpoly_literal(cs):
    parts = []
    for k, c in enumerate(cs):
        if c.is_zero():
            continue
        lit = _ref_scalar_literal(c)
        if k == 0:
            body = lit if isinstance(c, Cyclo8) else f"({lit})"
        else:
            sym = "t" if k == 1 else f"t^{k}"
            if c == 1:
                body = sym
            elif c == -1:
                body = "-" + sym
            else:
                if "+" in lit[1:] or "-" in lit[1:] or "/" in lit or not isinstance(c, Cyclo8):
                    lit = f"({lit})"
                body = f"{lit}*{sym}"
        if parts and not body.startswith("-"):
            parts.append("+")
        parts.append(body)
    return "".join(parts) if parts else "0"


def _ref_trat_literal(x):
    num = _ref_tpoly_literal(x.num)
    if x.den == _ONE_POLY:
        return num
    return f"({num})/({_ref_tpoly_literal(x.den)})"


# ------------------------------------------------------------ the comparison

_NEW = {"l": LambdaRat, "t": TRat, "lam": LAMBDA, "tvar": T_VAR}
_REF = {"l": _ReferenceLambdaRat, "t": _ReferenceTRat,
        "lam": _ReferenceLambdaRat.var(), "tvar": _ReferenceTRat.var()}
_PAIRS = ((_ReferenceLambdaRat, LambdaRat), (_ReferenceTRat, TRat))
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _evaluate(tree, w):
    """The value of an expression tree, with w's rational-function types."""
    kind = tree[0]
    if kind in ("int", "c8"):
        return tree[1]
    if kind in ("lam", "tvar"):
        return w[kind]
    if kind == "lrat":
        return w["l"](tuple(tree[1]), tuple(tree[2]))
    if kind == "trat":
        return w["t"](*(tuple(w["l"](tuple(n), tuple(d)) for n, d in cs) for cs in tree[1:]))
    x = _evaluate(tree[1], w)
    if isinstance(x, int):  # keep int ** int and int / int out of floating point
        x = Cyclo8(x)
    if kind == "neg":
        return -x
    if kind == "inv":
        return x.inverse()
    if kind == "**":
        return x ** tree[2]
    return _OPS[kind](x, _evaluate(tree[2], w))


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except (ZeroDivisionError, PoleAtZero) as exc:
        return None, type(exc)


def _lift_ref(x):
    """A reference value rebuilt, without normalising, as the shared type."""
    for ref, new in _PAIRS:
        if isinstance(x, ref):
            return new._reduced(tuple(_lift_ref(c) for c in x.num), tuple(_lift_ref(c) for c in x.den))
    return x


def _assert_same(got, want):
    if isinstance(want, (_ReferenceLambdaRat, _ReferenceTRat)):
        assert type(got) is dict(_PAIRS)[type(want)]
        lifted = _lift_ref(want)
        assert got.num == lifted.num and got.den == lifted.den, (str(got), str(want))
    else:
        assert type(got) is type(want) and got == want
    assert str(got) == str(want)


def _assert_outcomes_agree(got, want):
    assert got[1] is want[1], (got, want)
    if got[1] is None:
        _assert_same(got[0], want[0])


_c8 = st.builds(Cyclo8, st.integers(-3, 3), st.integers(-1, 1), st.integers(-1, 1), st.just(0))
_cpoly = st.lists(_c8, max_size=3)
_den = st.lists(_c8, min_size=1, max_size=2).filter(lambda p: not p[-1].is_zero())
_lcoeff = st.tuples(st.lists(st.builds(Cyclo8, st.integers(-2, 2)), max_size=2), _den)
_leaves = st.one_of(
    st.tuples(st.just("int"), st.integers(-3, 3)),
    st.tuples(st.just("c8"), _c8),
    st.tuples(st.sampled_from(("lam", "tvar"))),
    st.tuples(st.just("lrat"), _cpoly, _den),
    st.tuples(st.just("trat"), st.lists(_lcoeff, max_size=2),
              st.lists(_lcoeff, min_size=1, max_size=2)),
)
# small trees: a gcd over Q(z)(l) coefficients swells fast with the degree
_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.tuples(st.sampled_from("+-*/"), sub, sub),
    st.tuples(st.just("**"), sub, st.integers(-2, 2)),
    st.tuples(st.sampled_from(("neg", "inv")), sub),
), max_leaves=4)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_trees)
@example(("*", ("lam",), ("tvar",)))  # l*t goes through TRat.__rmul__
@example(("/", ("tvar",), ("lrat", [Cyclo8(1), Cyclo8(1)], [Cyclo8(1)])))  # t / (1+l)
@example(("+", ("/", ("int", 1), ("tvar",)), ("**", ("lam",), -1)))
def test_shared_body_matches_the_reference_bodies(tree):
    got, want = _outcome(_evaluate, tree, _NEW), _outcome(_evaluate, tree, _REF)
    _assert_outcomes_agree(got, want)
    x, r = got[0], want[0]
    if isinstance(x, LambdaRat):
        for v in (C8_ZERO, Cyclo8(2), ZETA):
            _assert_outcomes_agree(_outcome(x.substitute, v), _outcome(r.substitute, v))
    if isinstance(x, (int, Cyclo8, LambdaRat)):
        for lam, ref_lam in ((T_VAR, _REF["tvar"]), (1 / (1 + T_VAR), 1 / (1 + _REF["tvar"]))):
            _assert_outcomes_agree(_outcome(LambdaRat.coerce(x).substitute, lam),
                                   _outcome(_ref_substitute_lambda, r, ref_lam))
    if isinstance(x, TRat):
        assert x.order_at_zero() == r.order_at_zero()
        got_0, want_0 = _outcome(eval_at_zero, x), _outcome(r.eval_at_zero)
        assert got_0[1] is want_0[1]
        if got_0[1] is None:
            # a constant coefficient may be stored as Cyclo8 on one side and
            # as a constant LambdaRat on the other; they are equal and print alike
            assert got_0[0] == _lift_ref(want_0[0]) and str(got_0[0]) == str(want_0[0])


# ------------------------------------------------------------ truth

def test_zero_is_false_and_nonzero_is_true_for_every_scalar_type():
    zeros = [C8_ZERO, Cyclo8(0, 0, 0, 0), ZETA - ZETA, LambdaRat.coerce(0), LAMBDA - LAMBDA,
             TRat.coerce(0), T_VAR - T_VAR, TRat.coerce(LambdaRat.coerce(0)), (LAMBDA - LAMBDA) * T_VAR]
    nonzeros = [C8_ONE, ZETA, Cyclo8(-1) / 3, ZETA - ZETA ** 3, LAMBDA, LambdaRat.coerce(2), 1 / (1 - LAMBDA),
                T_VAR, TRat.coerce(LAMBDA), TRat.coerce(Cyclo8(1) / 2), 1 / T_VAR, LAMBDA * T_VAR - T_VAR]
    for x in zeros:
        assert bool(x) is False and x.is_zero() and not x
    for x in nonzeros:
        assert bool(x) is True and not x.is_zero() and (x or None) is x


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_trees)
def test_truth_agrees_with_is_zero(tree):
    x = _outcome(_evaluate, tree, _NEW)[0]
    if not isinstance(x, (int, Cyclo8, LambdaRat, TRat)):
        return  # the tree raised
    assert bool(x) is (not (x == 0 if isinstance(x, int) else x.is_zero()))


# ------------------------------------------------------------ pmul

def _reference_pmul(a, b, zero):
    """The former polys.pmul: every output slot starts from zero."""
    if not a or not b:
        return ()
    out = [zero] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca.is_zero():
            continue
        for j, cb in enumerate(b):
            if cb.is_zero():
                continue
            out[i + j] = out[i + j] + ca * cb
    return pstrip(out)


def _assert_same_poly(got, want):
    """Equal coefficient by coefficient, in type and in printed form."""
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert type(x) is type(y) and x == y and str(x) == str(y)
        if isinstance(x, Cyclo8):
            assert (x.c, x.d) == (y.c, y.d)


# a third of the coefficients zero, the rest with or without a z-part and a denominator
_pcoeff = st.one_of(st.just(C8_ZERO), st.builds(lambda a, b, d: Cyclo8(a, b) / d, st.integers(-3, 3),
                                                st.sampled_from((0, 0, 1, -1)), st.integers(1, 3)))
_ppoly = st.lists(_pcoeff, max_size=4).map(pstrip)
_lpoly = st.lists(st.one_of(_pcoeff, st.builds(lambda c, k: c * (LAMBDA + k), _pcoeff, st.integers(-2, 2))),
                  max_size=3).map(pstrip)


def _mirror(p):
    """p(-x): p * _mirror(p) has only even powers, so its odd terms cancel."""
    return tuple(c if i % 2 == 0 else -c for i, c in enumerate(p))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ppoly, _ppoly, st.booleans())
@example((C8_ONE, C8_ONE), (C8_ONE, -C8_ONE), False)  # (1 + l)(1 - l): the middle term cancels
@example((Cyclo8(1) / 2, C8_ZERO, Cyclo8(1) / 3), (Cyclo8(1) / 2, ZETA), True)
def test_pmul_matches_the_reference(a, b, mirrored):
    if mirrored:
        b = _mirror(a)
    _assert_same_poly(pmul(a, b, C8_ZERO), _reference_pmul(a, b, C8_ZERO))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lpoly, _lpoly, st.booleans())
def test_pmul_matches_the_reference_on_lambda_coefficients(a, b, mirrored):
    # the numerators and denominators of TRat hold LambdaRat and Cyclo8 coefficients, mixed
    if mirrored:
        b = _mirror(a)
    _assert_same_poly(pmul(a, b, C8_ZERO), _reference_pmul(a, b, C8_ZERO))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ppoly, _ppoly.filter(bool), _lpoly, _lpoly.filter(bool))
def test_products_print_as_with_the_reference_pmul(num, den, tnum, tden):
    # p(x) * p(-x) makes the middle terms cancel
    def products():
        return [str(x) for x in (LambdaRat(num, den) * LambdaRat(_mirror(num), den),
                                 LambdaRat(num) * LambdaRat(_mirror(num)),
                                 TRat(tnum, tden) * TRat(_mirror(tnum), tden) * T_VAR)]

    got = products()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polys, "pmul", _reference_pmul)
        assert products() == got


# ------------------------------------------------------------ gcd over Q(z)(l)

def _reference_pgcd(a, b, zero):
    """`polys.pgcd` before its specialisation test: the constant shortcut,
    then the Euclidean remainder sequence."""
    a, b = pstrip(a), pstrip(b)
    if len(a) == 1 or len(b) == 1:
        return (zero + 1,)
    while b:
        _, r = pdivmod(a, b, zero)
        a, b = b, r
    if not a:
        return ()
    return pscale(a, 1 / a[-1])


def _assert_same_gcd(got, want):
    assert len(got) == len(want) and all(x == y for x, y in zip(got, want)), (got, want)


_L = LAMBDA
_lcoeff = st.sampled_from([C8_ONE, -C8_ONE, Cyclo8(2), _L, -_L, 1 + _L, _L / (1 - _L), ZETA, 1 / (_L + 2),
                           ZETA * _L - 1, Cyclo8(1) / 3])
_tfactor = st.lists(_lcoeff, min_size=1, max_size=2).map(tuple)
# t - l, t^2 + z*l, l*t + 1 (leading coefficient zero at l = 0), and none
_planted = st.sampled_from([(-_L, C8_ONE), (ZETA * _L, C8_ZERO, C8_ONE), (C8_ONE, _L), (C8_ONE,)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted, _tfactor, _tfactor)
def test_planted_common_factors_match_the_euclidean_pgcd(f, p, q):
    a, b = pmul(f, p, C8_ZERO), pmul(f, q, C8_ZERO)
    got = pgcd(a, b, C8_ZERO)
    _assert_same_gcd(got, _reference_pgcd(a, b, C8_ZERO))
    assert len(got) >= len(f)


@pytest.mark.parametrize("a, b, degree", [
    # the leading coefficient l vanishes at l0 = 0, where the gcd t + 1/l would drop to 1
    (((C8_ONE, _L), (C8_ZERO, C8_ONE)), ((C8_ONE, _L), (C8_ONE, C8_ONE)), 1),
    # a denominator vanishes at l0 = 0
    (((1 / _L, C8_ONE), (-C8_ONE, C8_ONE)), ((1 / _L, C8_ONE), (Cyclo8(2), C8_ONE)), 1),
    # coprime, but both are t at l0 = 0: Euclid decides
    (((_L, C8_ONE),), ((2 * _L, C8_ONE),), 0),
])
def test_pinned_specialisations_match_the_euclidean_pgcd(a, b, degree):
    a, b = (a[0] if len(a) == 1 else pmul(*a, C8_ZERO)), (b[0] if len(b) == 1 else pmul(*b, C8_ZERO))
    got = pgcd(a, b, C8_ZERO)
    _assert_same_gcd(got, _reference_pgcd(a, b, C8_ZERO))
    assert len(got) - 1 == degree


def test_the_product_that_hung_finishes():
    # the product of two t-fractions over Q(z)(l) whose reduction ran the
    # Euclidean remainder sequence for more than 25 s
    from superdegen.literals import parse_scalar
    a, b, c, d, e = (parse_scalar(x) for x in ("(1+l)/(2-z*l)", "(3*l-1)/(l+z)", "l/(1-l)", "(2+z*l)/(l-3)",
                                                "(1-2*l)/(l+2)"))
    t = T_VAR
    start = time.perf_counter()
    product = (a * t ** 2 + b * t + c) / (d * t + e) * ((c * t ** 2 + a * t + d) / (b * t + e))
    assert time.perf_counter() - start < 2
    assert len(product.num) == 5 and len(product.den) == 3
    # at l = 5 it is the same product of t-fractions over Q(z)
    five = Cyclo8(5)
    a, b, c, d, e = (x.substitute(five) for x in (a, b, c, d, e))

    def at_five(p):
        return tuple(x.substitute(five) if isinstance(x, LambdaRat) else x for x in p)
    assert TRat(at_five(product.num), at_five(product.den)) == \
        (a * t ** 2 + b * t + c) / (d * t + e) * ((c * t ** 2 + a * t + d) / (b * t + e))
