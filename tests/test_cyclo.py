import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdegen.cyclo import C8_ONE, C8_ZERO, SQRT2, SQRTM2, I_UNIT, ZETA, Cyclo8, cyclo_literal
from superdegen.literals import parse_scalar


def test_defining_constants():
    assert SQRT2 * SQRT2 == 2
    assert SQRTM2 * SQRTM2 == Cyclo8(-2)
    assert I_UNIT * I_UNIT == Cyclo8(-1)
    assert ZETA ** 4 == Cyclo8(-1)
    assert ZETA ** 8 == 1


def test_zeta_inverse():
    # z * z^3 = z^4 = -1, so 1/z = -z^3
    assert ZETA.inverse() == -(ZETA ** 3)
    assert ZETA * ZETA.inverse() == 1


def test_sqrt2_inverse_is_half_sqrt2():
    inv = SQRT2.inverse()
    assert inv == SQRT2 / 2
    assert inv * SQRT2 == 1


def _random_elements(seed, count, zero_ok=True):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = Cyclo8(*[rng.randint(-6, 6) for _ in range(4)]) / rng.randint(1, 5)
        if zero_ok or not x.is_zero():
            out.append(x)
    return out


def test_field_axioms_on_random_samples():
    xs = _random_elements(1, 30)
    ys = _random_elements(2, 30)
    zs = _random_elements(3, 30)
    for a, b, c in zip(xs, ys, zs):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
    for a in _random_elements(4, 30, zero_ok=False):
        assert a * a.inverse() == 1
        assert a * C8_ONE == a
        assert a + C8_ZERO == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        C8_ONE / C8_ZERO
    with pytest.raises(ZeroDivisionError):
        C8_ZERO.inverse()


def test_literal_round_trip():
    for x in _random_elements(5, 40):
        assert parse_scalar(cyclo_literal(x)) == x
    assert cyclo_literal(C8_ZERO) == "0"
    assert parse_scalar("z-z^3") == SQRT2
    assert parse_scalar("z+z^3") == SQRTM2


# --- oracle: the integer-backed Cyclo8 against a Fraction-backed reference ---

class _FractionCyclo8:
    """Reference Q(z): four Fraction coefficients, z^4 = -1, inverse via the
    three Galois conjugates.  Kept here only as an oracle."""

    def __init__(self, *coeffs):
        self.c = tuple(Fraction(a) for a in coeffs)

    def is_zero(self):
        return not any(self.c)

    def __add__(self, o):
        return _FractionCyclo8(*(a + b for a, b in zip(self.c, o.c)))

    def __neg__(self):
        return _FractionCyclo8(*(-a for a in self.c))

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = o.c
        return _FractionCyclo8(
            a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
        )

    def inverse(self):
        a0, a1, a2, a3 = self.c
        p = (_FractionCyclo8(a0, a3, -a2, a1) * _FractionCyclo8(a0, -a1, a2, -a3)
             * _FractionCyclo8(a0, -a3, -a2, -a1))
        norm = (self * p).c
        assert not any(norm[1:])
        return _FractionCyclo8(*(a / norm[0] for a in p.c))

    def __truediv__(self, o):
        return self * o.inverse()

    def literal(self):
        parts = []
        for k, a in enumerate(self.c):
            if not a:
                continue
            sym = ("", "z", "z^2", "z^3")[k]
            q = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
            if k == 0:
                body = q
            elif a == 1:
                body = sym
            elif a == -1:
                body = "-" + sym
            else:
                body = f"{q}*{sym}"
            if parts and not body.startswith("-"):
                parts.append("+")
            parts.append(body)
        return "".join(parts) if parts else "0"


_coeff = st.fractions(min_value=-40, max_value=40, max_denominator=12)
_coeffs = st.tuples(_coeff, _coeff, _coeff, _coeff)
_ints = st.integers(min_value=-30, max_value=30)
_oracle = settings(max_examples=200, deadline=None, derandomize=True)


def _matches(x, ref):
    """x is canonical and has the reference's value."""
    assert isinstance(x, Cyclo8)
    assert x.d > 0 and gcd(*x.c, x.d) == 1
    assert tuple(Fraction(n, x.d) for n in x.c) == ref.c


def _from_ints(coeffs):
    """The same element built as an integer vector divided by an integer."""
    den = 1
    for a in coeffs:
        den = den * a.denominator // gcd(den, a.denominator)
    return Cyclo8(*(int(a * den) for a in coeffs)) / den


def _from_rational(num, den=1):
    """num / den as a quotient of two elements of Q(z)."""
    return Cyclo8(num) / Cyclo8(den)


@_oracle
@given(_coeffs, _coeffs)
def test_oracle_field_operations(p, q):
    x, y = Cyclo8(*p), Cyclo8(*q)
    rx, ry = _FractionCyclo8(*p), _FractionCyclo8(*q)
    _matches(x, rx)
    _matches(x + y, rx + ry)
    _matches(x - y, rx - ry)
    _matches(x * y, rx * ry)
    _matches(-x, -rx)
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
    else:
        _matches(y.inverse(), ry.inverse())
        _matches(x / y, rx / ry)


@_oracle
@given(_coeffs, _ints)
def test_oracle_mixed_int_operations(p, k):
    x, rx, rk = Cyclo8(*p), _FractionCyclo8(*p), _FractionCyclo8(k, 0, 0, 0)
    _matches(x + k, rx + rk)
    _matches(k + x, rx + rk)
    _matches(x - k, rx - rk)
    _matches(k - x, rk - rx)
    _matches(x * k, rx * rk)
    _matches(k * x, rx * rk)
    if k:
        _matches(x / k, rx / rk)
    if not rx.is_zero():
        _matches(k / x, rk / rx)
    assert (x == k) == (rx.c == rk.c)


def test_equal_values_share_hash():
    a, b = Cyclo8(2, 4) / 2, Cyclo8(1, 2)
    assert a == b and hash(a) == hash(b)
    a, b = Cyclo8(Fraction(1, 2), 0, 0, Fraction(-3, 4)), Cyclo8(2, 0, 0, -3) / 4
    assert a == b and hash(a) == hash(b)
    assert Cyclo8(3) - 3 == C8_ZERO and hash(Cyclo8(3) - 3) == hash(C8_ZERO)


@_oracle
@given(_coeffs, _coeffs, st.integers(min_value=1, max_value=30))
def test_oracle_equality_and_hash_are_structural(p, q, k):
    x, y = Cyclo8(*p), Cyclo8(*q)
    for same in (_from_ints(p), (x * k) / k, (x + y) - y, _from_rational(k) * x / k):
        assert same == x and hash(same) == hash(x)
    assert (x == y) == (p == q)


@_oracle
@given(_coeffs)
@example((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(-3, 2)))
@example((Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(2, 3)))
def test_oracle_literal_round_trip(p):
    x = Cyclo8(*p)
    text = cyclo_literal(x)
    assert text == _FractionCyclo8(*p).literal()
    back = parse_scalar(text)
    assert back == x and hash(back) == hash(x)


# --- oracle for the rational branch: operands with n1 = n2 = n3 = 0 ---

_rational = st.fractions(min_value=-40, max_value=40, max_denominator=12)
_rational_coeffs = st.one_of(st.just(Fraction(0)), _rational).map(lambda a: (a, 0, 0, 0))


def _check_pair(p, q):
    x, y = Cyclo8(*p), Cyclo8(*q)
    rx, ry = _FractionCyclo8(*p), _FractionCyclo8(*q)
    _matches(x + y, rx + ry)
    _matches(x - y, rx - ry)
    _matches(x * y, rx * ry)
    for v, rv in ((x, rx), (y, ry)):
        _matches(v - v, rv - rv)
        _matches(v + (-v), rv + (-rv))
        if rv.is_zero():
            with pytest.raises(ZeroDivisionError):
                v.inverse()
        else:
            _matches(v.inverse(), rv.inverse())
    if ry.is_zero():
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        _matches(x / y, rx / ry)


@_oracle
@given(_rational_coeffs, _rational_coeffs)
@example((Fraction(5, 6), 0, 0, 0), (Fraction(-5, 6), 0, 0, 0))
@example((Fraction(1, 6), 0, 0, 0), (Fraction(1, 3), 0, 0, 0))
@example((Fraction(0), 0, 0, 0), (Fraction(-7, 12), 0, 0, 0))
def test_oracle_rational_operands(p, q):
    _check_pair(p, q)


@_oracle
@given(_rational_coeffs, _coeffs)
def test_oracle_rational_and_general_operands(p, q):
    _check_pair(p, q)
    _check_pair(q, p)


def test_rational_branch_keeps_zero_canonical():
    half = Cyclo8(1) / 2
    for zero in (half - half, half + (-half), half * C8_ZERO, C8_ZERO * half, C8_ZERO / half):
        assert zero.c == (0, 0, 0, 0) and zero.d == 1
    assert (Cyclo8(-3) / 4).inverse().c == (-4, 0, 0, 0) and (Cyclo8(-3) / 4).inverse().d == 3
