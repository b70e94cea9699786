"""Exact dense linear algebra over any of the package's scalar fields.

Elimination pivots on the first nonzero entry in column order; with exact
arithmetic there is nothing to gain from pivot selection, and a fixed rule
makes every kernel basis and inverse reproducible across runs.

One elimination kernel runs here.  `_forward` clears below each pivot only
and leaves pivot rows as they are, enough for the rank (the number of
pivots) and the determinant (their signed product).  A kernel basis, a
solution and an inverse are read from the reduced row echelon form, which
`_reduced` gets from `_forward` by a back pass over the pivot rows in
reverse order: each pivot row is normalised and its column cleared above
it.  The reduced form of a matrix is unique, so this gives the same
entries as Gauss-Jordan elimination, which also clears above each pivot
as it goes, with fewer operations: the back pass works on the nonzero
entries right of each pivot only.

Transport inverts by `adjugate` instead (cofactors: ring operations only,
on ints, polynomials and field scalars); `Matrix.inverse` stays as API.

Rank over Q(z)(l) is taken by evaluation, with a certificate.  Multiply
each row by the lcm of its denominators; the rank does not change, and
every entry becomes a polynomial in l of degree at most d.

Rows that are constant in l are eliminated once, over Q(z): let r_c be
their rank.  Each remaining (moving) row is reduced by the constant pivot
rows, in pivot order, by adding a multiple of a pivot row to it.  Adding a
Q(z)(l)-multiple of one row to another keeps the rank, and because the
pivot rows are constant the reduced entries stay polynomials of degree at
most d.  Put the pivot columns first: the constant pivot rows are then
upper triangular with a nonzero diagonal on those columns, and the reduced
moving rows are zero there.  The matrix is block triangular, so its rank is
r_c + r', where r' is the rank of the residual: the reduced moving rows
restricted to the columns without a constant pivot.

The residual's rank is certified by evaluation.  Let d be the largest
degree of its entries.  At any l = l0 the rank of the evaluated residual is
a lower bound on its rank over Q(z)(l), because a minor that is nonzero at
l0 is nonzero as a polynomial.  Let r' be the largest rank seen so far.
Every (r'+1)-minor is a polynomial of degree at most (r'+1)*d; if it
vanishes at (r'+1)*d + 1 distinct points it is the zero polynomial.  So
once that many points have been evaluated, all giving rank at most r', the
residual's rank over Q(z)(l) is exactly r'.  The points are l = 0, 1, 2,
... in turn; evaluation stops early once r' = min(rows, cols) of the
residual.

When no coefficient of the cleared rows has a z-part, all of this runs on
their integer image, on Python ints: each row is multiplied by the lcm of
its coefficient denominators, and elimination goes without fractions.  A
row below a pivot p with entry a in the pivot column becomes p*row - a*prow,
divided by the gcd of its coefficients.  Each row is then a nonzero
constant multiple of the row the elimination over Q(z) leaves, so the pivot
columns, the residual's zero pattern, its degree d, the stop rule and the
rank at every point are the same.  A coefficient with a z-part keeps the
elimination over Q(z).
"""

from __future__ import annotations

from math import gcd, lcm

from .cyclo import C8_ONE, C8_ZERO, Cyclo8
from .polys import ONE_POLY, padd, pdivmod, peval, pgcd, pmul, pscale
from .scalars import LRAT_ONE, LRAT_ZERO, LambdaRat
from .tpoly import TRAT_ONE, TRAT_ZERO, TRat


class Singular(ArithmeticError):
    pass


def _lift_c8(x):
    if isinstance(x, Cyclo8):
        return x
    if isinstance(x, int):
        return Cyclo8(x)
    raise TypeError(f"cannot place {type(x).__name__} in Q(z)")


class Field:
    """Zero/one samples plus a lift into the field, enough to run elimination generically."""

    __slots__ = ("name", "zero", "one", "lift")

    def __init__(self, name, zero, one, lift):
        self.name = name
        self.zero = zero
        self.one = one
        self.lift = lift

    def __repr__(self):
        return f"Field({self.name})"


FIELD_C8 = Field("Q(z)", C8_ZERO, C8_ONE, _lift_c8)
FIELD_LRAT = Field("Q(z)(l)", LRAT_ZERO, LRAT_ONE, LambdaRat.coerce)
FIELD_TRAT = Field("Q(z)(l)(t)", TRAT_ZERO, TRAT_ONE, TRat.coerce)


def _distinct_nonzero_rows(rows):
    """The rows that are nonzero, each kept once, in their first order.

    A row is compared only with the rows kept before it that share its
    leading column, so entry types need no hash."""
    seen, out = {}, []
    for row in rows:
        lead = next((c for c, e in enumerate(row) if not e.is_zero()), None)
        if lead is None:
            continue
        bucket = seen.setdefault(lead, [])
        if any(row == other for other in bucket):
            continue
        bucket.append(row)
        out.append(row)
    return out


def _forward(m, cols, invs=None):
    """Forward elimination in place on the list of row lists m.

    Each pivot clears its column below itself only, and pivot rows are not
    normalised.  Entries left of the pivot in rows below it are not updated:
    no later step reads them, so a pivot row may hold stale nonzero entries
    left of its pivot.  Returns the pivot columns in order (the pivot of row
    i is m[i][pivot_cols[i]]) and the number of row swaps.  When invs is a
    list, the inverse of each pivot is appended to it, in pivot order."""
    pivot_cols, swaps = [], 0
    pr = 0
    for pc in range(cols):
        pivot = next((r for r in range(pr, len(m)) if not m[r][pc].is_zero()), None)
        if pivot is None:
            continue
        if pivot != pr:
            m[pr], m[pivot] = m[pivot], m[pr]
            swaps += 1
        prow = m[pr]
        inv = prow[pc].inverse()
        if invs is not None:
            invs.append(inv)
        tail = [(c, prow[c]) for c in range(pc + 1, cols) if not prow[c].is_zero()]
        for r in range(pr + 1, len(m)):
            row = m[r]
            a = row[pc]
            if a.is_zero():
                continue
            f = a * inv
            for c, b in tail:
                row[c] = row[c] - f * b
        pivot_cols.append(pc)
        pr += 1
        if pr == len(m):
            break
    return pivot_cols, swaps


def _reduced(m, field):
    """Reduced row echelon form, in place, of the list of row lists m;
    returns the pivot columns.

    After `_forward`, the back pass takes the pivot rows last to first.  It
    reads only the nonzero entries right of each pivot, which `_forward`
    has kept exact; the stale entries left of a pivot are never read.  Row i
    is rewritten whole: zero left of its pivot, one at it, its entries
    divided by the pivot right of it, with the inverse `_forward` took.
    That row then clears its pivot column in the rows above.  Rows below
    the last pivot are left as they are."""
    width = len(m[0]) if m else 0
    invs = []
    pivot_cols, _ = _forward(m, width, invs)
    zero, one = field.zero, field.one
    for i in range(len(pivot_cols) - 1, -1, -1):
        pc = pivot_cols[i]
        prow = m[i]
        inv = invs[i]
        tail = [(c, prow[c] * inv) for c in range(pc + 1, width) if not prow[c].is_zero()]
        row = [zero] * width
        row[pc] = one
        for c, b in tail:
            row[c] = b
        m[i] = row
        for r in range(i):
            above = m[r]
            a = above[pc]
            if a.is_zero():
                continue
            above[pc] = zero
            for c, b in tail:
                above[c] = above[c] - a * b
    return pivot_cols


def _cleared_row(row):
    """A row of LambdaRat times the lcm of its denominators: polynomials in l."""
    den = ONE_POLY
    for x in row:
        if x.den != den and len(x.den) > 1:
            g = pgcd(den, x.den, C8_ZERO)
            den = pmul(den, pdivmod(x.den, g, C8_ZERO)[0], C8_ZERO)
    return [x.num if x.den == den else pmul(x.num, pdivmod(den, x.den, C8_ZERO)[0], C8_ZERO)
            for x in row]


def integer_polys(polys):
    """The integer image of the Q(z)[l] polynomials polys: (D, ints) with D
    the lcm of their coefficient denominators and ints the int coefficient
    lists of D * p; None if a coefficient has a z-part."""
    den = 1
    for p in polys:
        for x in p:
            _, a1, a2, a3 = x.c
            if a1 or a2 or a3:
                return None
            den = lcm(den, x.d)
    return den, [[x.c[0] * (den // x.d) for x in p] for p in polys]


def _integer_rows(polys):
    """Rows of Q(z)[l] polynomials, each on its own integer image; None if
    any coefficient has a z-part."""
    images = [integer_polys(row) for row in polys]
    return None if None in images else [ints for _, ints in images]


def _int_forward(m, cols):
    """`_forward` without fractions on rows of ints: each row below a pivot p
    becomes p*row - a*prow, divided by the gcd of its entries.  Every row is
    a nonzero multiple of the row `_forward` would leave, so the pivot
    columns are the same.  Returns them."""
    pivot_cols, pr = [], 0
    for pc in range(cols):
        pivot = next((r for r in range(pr, len(m)) if m[r][pc]), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        prow = m[pr]
        p = prow[pc]
        for r in range(pr + 1, len(m)):
            a = m[r][pc]
            if a:
                row = [p * x - a * y for x, y in zip(m[r], prow)]
                g = gcd(*row)
                m[r] = [x // g for x in row] if g > 1 else row
        pivot_cols.append(pc)
        pr += 1
        if pr == len(m):
            break
    return pivot_cols


def _int_combine(p, x, a, y):
    """p*x - y*a for int polynomials x and a and ints p != 0 and y."""
    out = [p * c for c in x]
    if y:
        out += [0] * (len(a) - len(out))
        for i, c in enumerate(a):
            out[i] -= y * c
        while out and not out[-1]:
            out.pop()
    return out


def _reduce_c8(const, moving, cols):
    """Eliminate the constant rows over Q(z) and reduce the moving rows by
    their pivot rows, in place; returns the pivot columns."""
    invs = []
    pivot_cols, _ = _forward(const, cols, invs)
    # pivot rows may hold stale entries left of their pivot; only their
    # pivot and the entries right of it are read
    for prow, pc, inv in zip(const, pivot_cols, invs):
        tail = [(c, -prow[c] * inv) for c in range(pc + 1, cols) if not prow[c].is_zero()]
        for row in moving:
            a = row[pc]
            if a:
                for c, f in tail:
                    row[c] = padd(row[c], pscale(a, f))
    return pivot_cols


def _reduce_int(const, moving, cols):
    """`_reduce_c8` without fractions: a moving row becomes p*row - a*prow,
    divided by the gcd of its coefficients, a nonzero multiple of the row
    `_reduce_c8` leaves."""
    pivot_cols = _int_forward(const, cols)
    for prow, pc in zip(const, pivot_cols):
        p = prow[pc]
        for k, row in enumerate(moving):
            a = row[pc]
            if a:
                row = [_int_combine(p, x, a, y) for x, y in zip(row, prow)]
                g = gcd(*(c for x in row for c in x))
                moving[k] = [[c // g for c in x] for x in row] if g > 1 else row
    return pivot_cols


def _rank_by_evaluation(rows, cols):
    """Rank over Q(z)(l) of nonzero LambdaRat rows, certified as the module
    docstring explains; on Python ints when no coefficient has a z-part.
    Only one point's evaluated residual is held at a time."""
    polys = [_cleared_row(row) for row in rows]
    ints = _integer_rows(polys)
    if ints is None:
        zero, reduce, forward = C8_ZERO, _reduce_c8, lambda m, w: _forward(m, w)[0]
    else:
        polys, zero, reduce, forward = ints, 0, _reduce_int, _int_forward
    const, moving = [], []
    for row in polys:
        if all(len(p) <= 1 for p in row):
            const.append([p[0] if p else zero for p in row])
        else:
            moving.append(row)
    pivot_cols = reduce(const, moving, cols)
    pivots = set(pivot_cols)
    free = [c for c in range(cols) if c not in pivots]
    residual = [res for res in ([row[c] for c in free] for row in moving) if any(res)]
    d = max((len(p) - 1 for row in residual for p in row), default=0)
    full = min(len(residual), len(free))
    r = points = 0
    while r < full and points < (r + 1) * d + 1:
        r = max(r, len(forward([[peval(p, points, zero) for p in row] for row in residual], len(free))))
        points += 1
    return len(pivot_cols) + r


def _minor(m, rows, cols, one):
    """Determinant of m on rows x cols by cofactors down the first column (None or 0 if zero)."""
    if len(rows) < 2:
        return m[rows[0]][cols[0]] if rows else one
    out = None
    for k, r in enumerate(rows):
        rest = rows[:k] + rows[k + 1:]
        y = m[r][cols[0]] and (m[rest[0]][cols[1]] if len(rest) == 1 else _minor(m, rest, cols[1:], one))
        if y:
            y = m[r][cols[0]] * y
            out = (-y if k % 2 else y) if out is None else out - y if k % 2 else out + y
    return out


def adjugate(m, zero=0, one=1):
    """(adj m, det m) of the square matrix m, row lists of ints or field
    scalars, by cofactors (ring operations only): entry (i, j) of adj m is
    (-1)^(i+j) times the minor of m without row j and column i."""
    idx = tuple(range(len(m)))
    minors = [[_minor(m, idx[:j] + idx[j + 1:], idx[:i] + idx[i + 1:], one) or zero for j in idx] for i in idx]
    return [[-x if (i + j) % 2 else x for j, x in enumerate(row)] for i, row in enumerate(minors)], \
        _minor(m, idx, idx, one) or zero


class Matrix:
    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows, cols, entries, field):
        entries = tuple(field.lift(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows, self.cols, self.entries, self.field = rows, cols, entries, field

    @classmethod
    def from_rows(cls, row_lists, field):
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        flat = [e for row in row_lists for e in row]
        return cls(rows, cols, flat, field)

    @classmethod
    def identity(cls, n, field):
        flat = [field.one if r == c else field.zero for r in range(n) for c in range(n)]
        return cls(n, n, flat, field)

    def at(self, r, c):
        return self.entries[r * self.cols + c]

    def row(self, r):
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def column(self, c):
        return tuple(self.entries[r * self.cols + c] for r in range(self.rows))

    def to_lists(self):
        return [list(self.row(r)) for r in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    __hash__ = None

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        z = self.field.zero
        flat = []
        for r in range(self.rows):
            row = self.row(r)
            for c in range(other.cols):
                acc = z
                for k in range(self.cols):
                    a = row[k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other.at(k, c)
                flat.append(acc)
        return Matrix(self.rows, other.cols, flat, self.field)

    def apply(self, vec):
        z = self.field.zero
        out = []
        for r in range(self.rows):
            acc = z
            row = self.row(r)
            for k, x in enumerate(vec):
                x = self.field.lift(x)
                if not x.is_zero():
                    acc = acc + row[k] * x
            out.append(acc)
        return tuple(out)

    def transpose(self):
        flat = [self.at(r, c) for c in range(self.cols) for r in range(self.rows)]
        return Matrix(self.cols, self.rows, flat, self.field)

    def map_entries(self, fn, field=None):
        field = field or self.field
        return Matrix(self.rows, self.cols, [fn(e) for e in self.entries], field)

    def rank(self) -> int:
        rows = _distinct_nonzero_rows(self.to_lists())
        if self.field is FIELD_LRAT:
            return _rank_by_evaluation(rows, self.cols)
        return len(_forward(rows, self.cols)[0])

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column, in column order."""
        m = self.to_lists()
        pivots = _reduced(m, self.field)
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        z, one = self.field.zero, self.field.one
        basis = []
        for f in free:
            v = [z] * self.cols
            v[f] = one
            for r, pc in enumerate(pivots):
                v[pc] = -m[r][f]
            basis.append(tuple(v))
        assert len(pivots) + len(basis) == self.cols
        return basis

    def determinant(self):
        """The signed product of the pivots of forward elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        m = self.to_lists()
        pivot_cols, swaps = _forward(m, self.cols)
        if len(pivot_cols) < self.rows:
            return self.field.zero
        det = self.field.one
        for row, pc in zip(m, pivot_cols):
            det = det * row[pc]
        return -det if swaps % 2 else det

    def inverse(self):
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        z, one = self.field.zero, self.field.one
        m = [list(self.row(r)) + [one if c == r else z for c in range(n)] for r in range(n)]
        if _reduced(m, self.field) != list(range(n)):
            raise Singular("matrix is singular")
        return Matrix(n, n, [e for row in m for e in row[n:]], self.field)

    def solve(self, rhs):
        """One solution x of self @ x = rhs, or None if inconsistent."""
        n, c = self.rows, self.cols
        rows = [list(self.row(r)) + [self.field.lift(rhs[r])] for r in range(n)]
        pivots = _reduced(rows, self.field)
        if c in pivots:
            return None
        z = self.field.zero
        x = [z] * c
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][c]
        return tuple(x)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in self.row(r)) for r in range(self.rows))
        return f"Matrix[{body}]"
