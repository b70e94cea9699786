"""Workload inputs, made from the seed alone.

The program receives only what these functions return: command lines for
`atlas`, and labels with integer basis changes for `fuzz-fixed` and
`fuzz-family`.  Nothing here imports the program.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from reference import CERT_SETS, FAMILIES, all_labels

# one fresh interpreter per command; the seed only sets their order
ATLAS_COMMANDS = (
    ("verify-catalog",),
    ("tables", "--kind", "stab"),
    ("tables", "--kind", "orbit"),
    *(("--json", "check", name) for name in CERT_SETS),
    ("--json", "diagram", "--component", "2", "--format", "json"),
)

# points per catalog entry in one pass.  The cost of a family point varies
# with its basis change (coefficient of variation about 0.35 between points),
# so fuzz-family spends its time on many distinct points in one pass rather
# than on repeated passes over a few.  README.md gives the measured spreads.
FIXED_POINTS_PER_ENTRY = 2
FAMILY_POINTS_PER_ENTRY = 20
# entries of the basis changes are drawn from -SPAN..SPAN, as the program's
# own random_group_element does
SPAN = 2
N = 4


def atlas_commands(seed: int):
    order = [list(c) for c in ATLAS_COMMANDS]
    random.Random(seed).shuffle(order)
    return order


def _det(rows) -> Fraction:
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _binomial_quantile(n: int, q: float, u: float) -> int:
    acc = 0.0
    for k in range(n + 1):
        acc += comb(n, k) * q ** k * (1 - q) ** (n - k)
        if acc >= u:
            return k
    return n


def group_element(rng: random.Random, u_zeros: float, u_large: float):
    """Random invertible integer basis change whose first column is e_1, so
    the unit stays the first basis vector.

    Each of the other 12 entries is uniform on -SPAN..SPAN, as in the
    program's own random_group_element, so the number of zero entries is
    binomial(12, 1/(2 SPAN + 1)) and the number of entries of absolute value
    SPAN among the nonzero ones is binomial(nonzero, 1/SPAN).  Those two
    counts are taken at the given quantiles instead of by chance; positions,
    signs and everything else stay random.  A point's cost grows with both
    counts, so a pass that covers their quantiles evenly costs nearly the
    same whatever the seed."""
    free = [(r, c) for r in range(N) for c in range(1, N)]
    zeros = _binomial_quantile(len(free), 1 / (2 * SPAN + 1), u_zeros)
    large = _binomial_quantile(len(free) - zeros, 1 / SPAN, u_large)
    while True:
        rows = [[1 if r == 0 else 0] + [0] * (N - 1) for r in range(N)]
        cells = rng.sample(free, len(free) - zeros)
        for i, (r, c) in enumerate(cells):
            size = SPAN if i < large else rng.randint(1, SPAN - 1)
            rows[r][c] = rng.choice((-1, 1)) * size
        if _det(rows) != 0:
            return rows


def _strata(count: int, rng: random.Random):
    """`count` quantile levels, one per equal stratum of (0, 1), in random order."""
    us = [(i + 0.5) / count for i in range(count)]
    rng.shuffle(us)
    return us


def fuzz_points(workload: str, seed: int):
    """[{'label': ..., 'g': 4x4 int rows}, ...] for one pass."""
    if workload == "fuzz-fixed":
        labels, per = [l for l in all_labels() if l not in FAMILIES], FIXED_POINTS_PER_ENTRY
    elif workload == "fuzz-family":
        labels, per = list(FAMILIES), FAMILY_POINTS_PER_ENTRY
    else:
        raise ValueError(f"no fuzz points for workload {workload!r}")
    rng = random.Random(seed)
    points = []
    for label in labels:
        pairs = zip(_strata(per, rng), _strata(per, rng))
        points += [{"label": label, "g": group_element(rng, uz, ul)} for uz, ul in pairs]
    return points
