"""Exact dense linear algebra over any of the package's scalar fields.

Three algorithms, one job each:

- integer elimination (`_int_forward`, `_int_rank`) takes every rank;
- `_reduced` gives kernel bases, solutions and the inverse;
- cofactors (`_minor`) give the determinant and the adjugate, with ring
  operations only, on ints, polynomials and field scalars.  They cost n!
  products, and every square matrix here has n <= 4.

Elimination pivots on the first nonzero entry in column order: with exact
arithmetic nothing is gained by choosing pivots, and a fixed rule makes
every kernel basis reproducible.  `_reduced` runs `_forward`, which clears
below each pivot only, then a back pass over the pivot rows in reverse
order: each is normalised and its column cleared above it.  The reduced
form is unique, so this gives the entries Gauss-Jordan elimination gives,
with fewer operations.  `Matrix.inverse` has no caller in the package
(transport inverts by `adjugate`); it stays only because the benchmark's
tracer (`perfbench/layers.py`) wraps it by name.

Rank is taken on the integer image.  Multiplying a row by a nonzero scalar
keeps the rank.  A row over Q(z)(l) is multiplied by the lcm of its
denominators, so every entry becomes a polynomial in l of degree at most d
(a Q(z) matrix is the case d = 0), and the matrix by the lcm of all
coefficient denominators.  With no z-part, every entry is then an int
polynomial, and the rank over Q(l) is read on ints at one value of l
(below).  Duplicate and zero rows of the int matrix are dropped, and
elimination runs without fractions: a row below a pivot p with entry a in
the pivot column becomes p*row - a*prow, divided by the gcd of its entries.

A coefficient with a z-part takes the regular representation: each entry
is written on 1, z, z^2, z^3, and each row becomes the four rows z^e * row
(e = 0..3), so an r x c matrix over Q(z)(l) becomes a 4r x 4c matrix over
Q(l).  Its row space is the row space over Q(z)(l) read as a Q(l)-space,
and Q(z)(l) has degree 4 over Q(l), so its rank is 4 times the rank over
Q(z)(l).  Multiplying by z maps (a0, a1, a2, a3) to (-a3, a0, a1, a2).

Over Q(l) the rank is read at one point above a root bound
(`int_poly_rank`).  Let the int polynomials have l-degree at most d and
coefficients at most c in size, and let k = min(rows, cols).  A j-minor,
j <= k, is a sum of j! products of j entries, and each coefficient of such
a product sums at most (d+1)^(j-1) products of j coefficients, so every
coefficient of every minor the rank can read is at most
H = k! (d+1)^(k-1) c^k.  A nonzero int polynomial whose coefficients are
at most H in size has no root of size H + 1 or more (Cauchy's bound: a root
x satisfies |x| < 1 + H / |leading coefficient|; M. Mignotte, Mathematics
for Computer Algebra, 1992, 4.1).  So a minor is nonzero exactly when it
is nonzero at l0 = H + 1, and the rank over Q(l) is the rank of the int
matrix evaluated at l0: one elimination, with nothing left to certify.
The regular representation is ranked the same way, with 4r rows and 4c
columns.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .cyclo import C8_ONE, C8_ZERO, Cyclo8
from .polys import ONE_POLY, pdivmod, peval, pgcd, pmul
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
        self.name, self.zero, self.one, self.lift = name, zero, one, lift

    def __repr__(self):
        return f"Field({self.name})"


FIELD_C8 = Field("Q(z)", C8_ZERO, C8_ONE, _lift_c8)
FIELD_LRAT = Field("Q(z)(l)", LRAT_ZERO, LRAT_ONE, LambdaRat.coerce)
FIELD_TRAT = Field("Q(z)(l)(t)", TRAT_ZERO, TRAT_ONE, TRat.coerce)


def _forward(m, cols, invs):
    """Forward elimination in place on the list of row lists m.

    Each pivot clears its column below itself only, and pivot rows are not
    normalised.  Entries left of the pivot in rows below it are not updated:
    no later step reads them, so a pivot row may hold stale nonzero entries
    left of its pivot.  Returns the pivot columns in order (the pivot of row
    i is m[i][pivot_cols[i]]); appends each pivot's inverse to invs."""
    pivot_cols, pr = [], 0
    for pc in range(cols):
        pivot = next((r for r in range(pr, len(m)) if not m[r][pc].is_zero()), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        prow = m[pr]
        inv = prow[pc].inverse()
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
    return pivot_cols


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
    pivot_cols = _forward(m, width, invs)
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
    if any(c[1] or c[2] or c[3] for c in {x.c for p in polys for x in p}):
        return None
    den = lcm(*{x.d for p in polys for x in p})
    return den, [[x.c[0] * (den // x.d) for x in p] for p in polys]


def _regular(polys):
    """The regular representation of rows of Q(z)[l] polynomials (module
    docstring), times the lcm of their coefficient denominators: each row
    becomes the four rows z^e * row (e = 0..3), and each entry its four int
    polynomials on 1, z, z^2, z^3.  Multiplying by z maps (a0, a1, a2, a3)
    to (-a3, a0, a1, a2)."""
    den = lcm(*{c.d for row in polys for p in row for c in p})
    out = []
    for row in polys:
        vecs = [[[a * (den // c.d) for a in c.c] for c in p] for p in row]
        for _ in range(4):
            out.append([[v[k] for v in p] for p in vecs for k in range(4)])
            vecs = [[[-v[3], v[0], v[1], v[2]] for v in p] for p in vecs]
    return out


def _int_forward(m, cols):
    """Forward elimination without fractions, in place on rows of ints: each
    row below a pivot p with entry a in the pivot column becomes
    p*row - a*prow, divided by the gcd of its entries.  Every row stays
    exact, zero left of its pivot.  Returns the pivot columns in order."""
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


def _int_rank(rows, cols):
    """Rank of rows of ints: duplicate and zero rows are dropped, the rest
    eliminated by `_int_forward`."""
    return len(_int_forward([row for row in dict.fromkeys(rows) if any(row)], cols))


def int_poly_rank(rows, cols):
    """Rank over Q(l) of rows of int polynomials in l (coefficient lists,
    low degree first): the rank of the rows evaluated at l0 = H + 1 above
    the root bound H of their minors (module docstring); a polynomial with
    no nonzero coefficient is not evaluated."""
    polys = [p for row in rows for p in row]
    c = max((abs(x) for p in polys for x in p), default=0)
    d = max(map(len, polys), default=1) - 1
    k = min(len(rows), cols)
    l0 = factorial(k) * (d + 1) ** max(k - 1, 0) * c ** k + 1
    return _int_rank([tuple(peval(p, l0, 0) if any(p) else 0 for p in row) for row in rows], cols)


def _poly_rank(polys, cols):
    """Rank over Q(z)(l) of rows of Q(z)[l] polynomials: on their integer
    image, or a quarter of the rank of their regular representation when a
    coefficient has a z-part (module docstring)."""
    image = integer_polys([p for row in polys for p in row])
    if image is None:
        return int_poly_rank(_regular(polys), 4 * cols) // 4
    return int_poly_rank(list(zip(*[iter(image[1])] * cols)), cols)  # the flat image cut back into rows


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

    def transpose(self):
        flat = [self.at(r, c) for c in range(self.cols) for r in range(self.rows)]
        return Matrix(self.cols, self.rows, flat, self.field)

    def map_entries(self, fn, field=None):
        field = field or self.field
        return Matrix(self.rows, self.cols, [fn(e) for e in self.entries], field)

    def rank(self) -> int:
        """Rank by integer elimination (module docstring); there is none
        over Q(z)(l)(t)."""
        if self.field is FIELD_LRAT:
            return _poly_rank([_cleared_row(row) for row in self.to_lists()], self.cols)
        if self.field is not FIELD_C8:
            raise TypeError(f"rank over {self.field.name} is not implemented")
        image = integer_polys([self.entries])
        if image is None:
            return _poly_rank([[(x,) for x in row] for row in self.to_lists()], self.cols)
        return _int_rank(zip(*[iter(image[1][0])] * self.cols), self.cols)  # rows of the flat image

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
        """By cofactors, as `adjugate` takes it: ring operations only."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        idx = tuple(range(self.rows))
        return _minor(self.to_lists(), idx, idx, self.field.one) or self.field.zero

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
