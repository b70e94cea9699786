"""Exact dense linear algebra over any of the package's scalar fields.

Elimination pivots on the first nonzero entry in column order; with exact
arithmetic there is nothing to gain from pivot selection, and a fixed rule
makes every kernel basis and inverse reproducible across runs.

Two elimination kernels run here.  `Matrix._echelon` is Gauss-Jordan: it
normalises each pivot row and clears its column above and below, which is
what a kernel basis, a solution or an inverse is read from.  `_forward`
clears below each pivot only and leaves pivot rows as they are, enough for
the rank (the number of pivots) and the determinant (their signed product).

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
"""

from __future__ import annotations

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


def _forward(m, cols):
    """Forward elimination in place on the list of row lists m.

    Each pivot clears its column below itself only, and pivot rows are not
    normalised.  Entries left of the pivot in rows below it are not updated:
    no later step reads them, so a pivot row may hold stale nonzero entries
    left of its pivot.  Returns the pivot columns in order (the pivot of row
    i is m[i][pivot_cols[i]]) and the number of row swaps."""
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


def _cleared_row(row):
    """A row of LambdaRat times the lcm of its denominators: polynomials in l."""
    lcm = ONE_POLY
    for x in row:
        if x.den != lcm and len(x.den) > 1:
            g = pgcd(lcm, x.den, C8_ZERO)
            lcm = pmul(lcm, pdivmod(x.den, g, C8_ZERO)[0], C8_ZERO)
    return [x.num if x.den == lcm else pmul(x.num, pdivmod(lcm, x.den, C8_ZERO)[0], C8_ZERO)
            for x in row]


def _rank_by_evaluation(rows, cols):
    """Rank over Q(z)(l) of nonzero LambdaRat rows, certified as the module
    docstring explains.  Only one point's evaluated residual is held at a time."""
    const, moving = [], []
    for row in rows:
        polys = _cleared_row(row)
        if all(len(p) <= 1 for p in polys):
            const.append([p[0] if p else C8_ZERO for p in polys])
        else:
            moving.append(polys)
    pivot_cols, _ = _forward(const, cols)
    # pivot rows may hold stale entries left of their pivot; only their
    # pivot and the entries right of it are read
    for prow, pc in zip(const, pivot_cols):
        inv = prow[pc].inverse()
        tail = [(c, -prow[c] * inv) for c in range(pc + 1, cols) if not prow[c].is_zero()]
        for row in moving:
            a = row[pc]
            if a:
                for c, f in tail:
                    row[c] = padd(row[c], pscale(a, f))
    pivots = set(pivot_cols)
    free = [c for c in range(cols) if c not in pivots]
    residual = [res for res in ([row[c] for c in free] for row in moving) if any(res)]
    d = max((len(p) - 1 for row in residual for p in row), default=0)
    full = min(len(residual), len(free))
    r = points = 0
    while r < full and points < (r + 1) * d + 1:
        at = [[peval(p, points, C8_ZERO) for p in row] for row in residual]
        r = max(r, len(_forward(at, len(free))[0]))
        points += 1
    return len(pivot_cols) + r


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

    def _echelon(self, m):
        """In-place forward elimination on list-of-lists m; returns pivot columns."""
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot = None
            for r in range(pr, len(m)):
                if not m[r][pc].is_zero():
                    pivot = r
                    break
            if pivot is None:
                continue
            if pivot != pr:
                m[pr], m[pivot] = m[pivot], m[pr]
            inv = 1 / m[pr][pc]
            m[pr] = [inv * e for e in m[pr]]
            for r in range(len(m)):
                if r == pr:
                    continue
                f = m[r][pc]
                if f.is_zero():
                    continue
                m[r] = [a - f * b for a, b in zip(m[r], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == len(m):
                break
        return pivots

    def rank(self) -> int:
        rows = _distinct_nonzero_rows(self.to_lists())
        if self.field is FIELD_LRAT:
            return _rank_by_evaluation(rows, self.cols)
        return len(_forward(rows, self.cols)[0])

    def kernel_basis(self):
        """Basis of the right kernel, one vector per free column, in column order."""
        m = self.to_lists()
        pivots = self._echelon(m)
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
        aug = Matrix.from_rows([list(self.row(r)) + [one if c == r else z for c in range(n)]
                                for r in range(n)], self.field)
        m = aug.to_lists()
        if aug._echelon(m) != list(range(n)):
            raise Singular("matrix is singular")
        return Matrix(n, n, [e for row in m for e in row[n:]], self.field)

    def solve(self, rhs):
        """One solution x of self @ x = rhs, or None if inconsistent."""
        n, c = self.rows, self.cols
        m = [list(self.row(r)) + [self.field.lift(rhs[r])] for r in range(n)]
        aug = Matrix(n, c + 1, [e for row in m for e in row], self.field)
        rows = aug.to_lists()
        pivots = aug._echelon(rows)
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
