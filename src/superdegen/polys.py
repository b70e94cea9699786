"""Dense univariate polynomial helpers over an exact field.

Polynomials are tuples of coefficients, low degree first, with no trailing
zero.  The empty tuple is the zero polynomial.  Coefficients only need field
operator support plus is_zero(); the helpers are shared by the rational
function types in the family parameter and in the curve parameter.
"""

from __future__ import annotations


def pstrip(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def padd(a, b) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return pstrip(out)


def pneg(a) -> tuple:
    return tuple(-c for c in a)


def pmul(a, b, zero) -> tuple:
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


def pscale(a, s) -> tuple:
    return pstrip(s * c for c in a)


def pdivmod(a, b, zero) -> tuple:
    """Quotient and remainder of a by b; b must have no trailing zero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(pstrip(a))
    q = [zero] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    low = b[:-1]
    while len(a) >= len(b):
        k = len(a) - len(b)
        f = a.pop() * inv_lead
        q[k] = f
        for i, c in enumerate(low):
            a[k + i] = a[k + i] - f * c
        while a and a[-1].is_zero():
            a.pop()
    return tuple(q), tuple(a)


def pgcd(a, b, zero) -> tuple:
    """Monic gcd by the Euclidean algorithm.

    A nonzero constant operand makes the gcd 1 at once: most calls reduce a
    fraction over the denominator 1, and need neither a division nor the
    inverse of a coefficient."""
    a, b = pstrip(a), pstrip(b)
    if len(a) == 1 or len(b) == 1:
        return (zero + 1,)
    while b:
        _, r = pdivmod(a, b, zero)
        a, b = b, r
    if not a:
        return ()
    return pscale(a, 1 / a[-1])


def peval(a, x, zero):
    """Horner evaluation; x may live in any ring the coefficients coerce into."""
    out = zero
    for c in reversed(a):
        out = out * x + c
    return out


def porder(a) -> int:
    """Multiplicity of the root 0; -1 for the zero polynomial."""
    for i, c in enumerate(a):
        if not c.is_zero():
            return i
    return -1
