import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superdegen.cyclo import C8_ONE, C8_ZERO, Cyclo8, ZETA
from superdegen.literals import ParseError, parse_scalar
from superdegen.polys import padd, pdivmod, pgcd, pmul, pneg, pstrip
from superdegen.scalars import LAMBDA, LambdaRat
from superdegen.tpoly import TRat


def _random_rats(seed, count, zero_ok=True):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = [Cyclo8(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(rng.randint(1, 3))]
        den = [Cyclo8(rng.randint(-3, 3)) for _ in range(rng.randint(1, 2))]
        try:
            x = LambdaRat(tuple(num), tuple(den))
        except ZeroDivisionError:
            continue
        if zero_ok or not x.is_zero():
            out.append(x)
    return out


def test_field_axioms():
    xs = _random_rats(10, 25)
    ys = _random_rats(11, 25)
    zs = _random_rats(12, 25)
    for a, b, c in zip(xs, ys, zs):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == 0
    for a in _random_rats(13, 25, zero_ok=False):
        assert a * a.inverse() == 1


def test_reduction_is_canonical():
    l = LAMBDA
    a = (l * l - 1) / (l - 1)
    assert a == l + 1
    # denominators are monic: (2l)/(2+2l) reduces with leading coefficient 1
    b = (2 * l) / (2 + 2 * l)
    assert b.den[-1] == 1
    assert b * (1 + l) == l


def test_inverse_of_one_plus_lambda():
    inv = (1 + LAMBDA).inverse()
    assert inv * (1 + LAMBDA) == 1
    assert str(inv) == "(1)/(1+l)"


def test_substitute():
    r = (1 + LAMBDA) / (1 - LAMBDA)
    assert r.substitute(Cyclo8(2)) == Cyclo8(-3)
    assert (LAMBDA * LAMBDA).substitute(ZETA) == ZETA ** 2
    with pytest.raises(ZeroDivisionError):
        r.substitute(Cyclo8(1))


def test_coercion_and_equality_across_types():
    assert LambdaRat.coerce(Cyclo8(5)) == Cyclo8(5)
    assert Cyclo8(5) == LambdaRat.coerce(Cyclo8(5))
    assert LAMBDA + 0 == LAMBDA
    assert (LAMBDA * 0).is_zero()


def test_literal_round_trip():
    for x in _random_rats(14, 30):
        assert parse_scalar(str(x)) == x


def test_parse_errors():
    for bad in ("", "1 +", "q", "((1)", "1//2", "l^x"):
        with pytest.raises(ParseError):
            parse_scalar(bad)


def test_pgcd_with_a_constant_operand_is_one():
    one = (Cyclo8(1),)
    p = (Cyclo8(2), Cyclo8(0, 3), Cyclo8(1))
    assert pgcd(p, (Cyclo8(5),), C8_ZERO) == one
    assert pgcd((ZETA,), p, C8_ZERO) == one
    assert pgcd((ZETA,), (), C8_ZERO) == one
    # a nonconstant common factor is still found, monic
    assert pgcd((Cyclo8(-2), Cyclo8(2)), (Cyclo8(-3), Cyclo8(0), Cyclo8(3)), C8_ZERO) == (Cyclo8(-1), Cyclo8(1))


def _reference_pdivmod(a, b, zero):
    """The earlier division loop, which stripped a twice on every turn: the
    reference for polys.pdivmod."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and pstrip(a):
        a = list(pstrip(a))
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        f = a[-1] * inv_lead
        q[k] = q[k] + f
        for i, c in enumerate(b):
            a[k + i] = a[k + i] - f * c
        a.pop()
    return pstrip(q), pstrip(a)


_coeffs = st.builds(Cyclo8, st.integers(-4, 4), st.integers(-2, 2), st.integers(-1, 1), st.integers(-1, 1))
_polys = st.lists(_coeffs, max_size=6)


def _deg(p):
    return len(pstrip(p)) - 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_polys, _polys.map(pstrip).filter(bool))
@example([Cyclo8(0), Cyclo8(0)], (Cyclo8(1),))  # a dividend with trailing zeros
@example([Cyclo8(1), Cyclo8(2), Cyclo8(1)], (Cyclo8(1), Cyclo8(1)))  # exact division
def test_pdivmod_matches_reference(a, b):
    q, r = pdivmod(a, b, C8_ZERO)
    assert padd(pmul(q, b, C8_ZERO), r) == pstrip(a)
    assert _deg(r) < _deg(b)
    assert q == pstrip(q) and r == pstrip(r)
    assert (q, r) == _reference_pdivmod(a, b, C8_ZERO)


def test_pdivmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        pdivmod((Cyclo8(1),), (), C8_ZERO)


_lpolys = st.lists(_coeffs, max_size=4).map(pstrip)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_lpolys, _lpolys)
def test_polynomial_arithmetic_is_canonical(a, b):
    # denominator 1 on both sides: the results skip normalisation, and must
    # equal what the normalising constructor builds; TRat shares the body
    for cls in (LambdaRat, TRat):
        x, y = cls(a), cls(b)
        for got, num in ((x + y, padd(a, b)), (x - y, padd(a, pneg(b))), (x * y, pmul(a, b, C8_ZERO))):
            want = cls(num, (C8_ONE,))
            assert type(got) is cls
            assert got.num == want.num and got.den == want.den
            assert str(got) == str(want)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_lpolys, _lpolys, _lpolys.filter(lambda d: len(d) > 1))
@example((Cyclo8(-1), Cyclo8(0), Cyclo8(1)), (Cyclo8(1),), (Cyclo8(-2), Cyclo8(2)))  # (l^2-1) * 1/(2l-2)
def test_mixed_operands_are_normalised(a, b, den):
    # one operand with a nonconstant denominator: the result is reduced and monic
    x, y = LambdaRat(a), LambdaRat(b, den)
    for got, num, d in ((x + y, padd(pmul(a, y.den, C8_ZERO), y.num), y.den),
                        (y - x, padd(y.num, pneg(pmul(a, y.den, C8_ZERO))), y.den),
                        (x * y, pmul(a, y.num, C8_ZERO), y.den)):
        want = LambdaRat(num, d)
        assert got.num == want.num and got.den == want.den
        assert not got.num or (got.den[-1] == 1 and len(pgcd(got.num, got.den, C8_ZERO)) == 1)
        assert str(got) == str(want)
