import random

import pytest

from superdegen.cyclo import Cyclo8
from superdegen.literals import parse_scalar
from superdegen.scalars import LAMBDA
from superdegen.tpoly import ORDER_INF, T_VAR, PoleAtZero, TRat, substitute_lambda

t = T_VAR


def test_order_at_zero_examples():
    assert ((t ** 2 + t ** 3) / t).order_at_zero() == 1
    assert ((1 + t) / 2).order_at_zero() == 0
    assert (1 / t).order_at_zero() == -1
    assert TRat.coerce(0).order_at_zero() == ORDER_INF


def test_eval_at_zero_examples():
    assert ((2 * t + 6) / 3).eval_at_zero() == 2
    assert (((1 + LAMBDA) * t + LAMBDA) / 1).eval_at_zero() == LAMBDA
    with pytest.raises(PoleAtZero):
        (1 / t).eval_at_zero()


def _random_trats(seed, count, zero_ok=True):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = tuple(Cyclo8(rng.randint(-3, 3)) for _ in range(rng.randint(1, 4)))
        den = tuple(Cyclo8(rng.randint(-2, 2)) for _ in range(rng.randint(1, 3)))
        try:
            x = TRat(num, den)
        except ZeroDivisionError:
            continue
        if zero_ok or not x.is_zero():
            out.append(x)
    return out


def test_valuation_is_additive():
    xs = _random_trats(20, 40, zero_ok=False)
    ys = _random_trats(21, 40, zero_ok=False)
    for a, b in zip(xs, ys):
        assert (a * b).order_at_zero() == a.order_at_zero() + b.order_at_zero()


def test_eval_is_additive_when_defined():
    for a, b in zip(_random_trats(22, 40), _random_trats(23, 40)):
        if a.order_at_zero() < 0 or b.order_at_zero() < 0:
            continue
        s = a + b
        if s.order_at_zero() >= 0:
            assert s.eval_at_zero() == a.eval_at_zero() + b.eval_at_zero()


def test_field_ops_and_round_trip():
    for a in _random_trats(24, 30, zero_ok=False):
        assert a * a.inverse() == 1
        assert parse_scalar(str(a)) == a


def test_lambda_substitution():
    x = (1 + LAMBDA) / LAMBDA
    sub = substitute_lambda(x, 1 / t)
    assert sub == (t + 1)
    assert substitute_lambda(Cyclo8(7), t) == TRat.coerce(7)
    y = LAMBDA / (1 - LAMBDA)
    assert substitute_lambda(y, t * t) == t * t / (1 - t * t)


def test_mixed_coefficients():
    # t-polynomials with coefficients in the lambda field combine exactly
    f = (1 + LAMBDA) * t + 1
    g = t * (1 - LAMBDA)
    assert (f + g) - 1 == 2 * t
    assert ((1 + LAMBDA) * t).eval_at_zero().is_zero()
