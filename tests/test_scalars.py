import random

import pytest

from superdegen.cyclo import C8_ZERO, Cyclo8, ZETA
from superdegen.literals import ParseError, parse_scalar
from superdegen.polys import pgcd
from superdegen.scalars import LAMBDA, LambdaRat, as_lrat, lrat_literal


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
    assert lrat_literal(inv) == "(1)/(1+l)"


def test_substitute():
    r = (1 + LAMBDA) / (1 - LAMBDA)
    assert r.substitute(Cyclo8(2)) == Cyclo8(-3)
    assert (LAMBDA * LAMBDA).substitute(ZETA) == ZETA ** 2
    with pytest.raises(ZeroDivisionError):
        r.substitute(Cyclo8(1))


def test_coercion_and_equality_across_types():
    assert as_lrat(Cyclo8(5)) == Cyclo8(5)
    assert Cyclo8(5) == as_lrat(Cyclo8(5))
    assert LAMBDA + 0 == LAMBDA
    assert (LAMBDA * 0).is_zero()


def test_literal_round_trip():
    for x in _random_rats(14, 30):
        assert parse_scalar(lrat_literal(x)) == x


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
