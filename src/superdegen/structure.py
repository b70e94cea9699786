"""Superalgebra points: structure constants, defining equations, transport.

A point is (alpha, gamma) where alpha[i][j][k] is the coefficient of e_k in
e_i e_j and gamma is the matrix of the involution, column i holding the image
of e_i.  Basis index 0 is always the unit.  The defining equation families
are numbered 1..6:

  1: e_1 e_i = e_i            4: sigma(e_1) = e_1
  2: e_i e_1 = e_i            5: sigma(e_i e_j) = sigma(e_i) sigma(e_j)
  3: associativity             6: sigma^2 = id

The non-unital variant checks only families 3, 5, 6.

When families 1, 2 and 4 hold, e_1 is a two-sided unit fixed by sigma, and
every equation of families 3 and 5 with an index on e_1 follows from them:
(e_1 e_j) e_k = e_j e_k = e_1 (e_j e_k), likewise with e_1 in the middle or
last place, and sigma(e_1 e_j) = sigma(e_j) = sigma(e_1) sigma(e_j), likewise
for e_j e_1.  `check_axioms` then evaluates only the triples and pairs on
indices 2..n (27 of 64 and 9 of 16 for n = 4).  Otherwise, and in the
non-unital mode, it evaluates all of them, so a report of violations does not
depend on the shortcut.

The tensor loops visit only the nonzero structure constants
(`StructureConstants.terms`); transport and the sigma check share one
contraction, `_along`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import FIELD_C8, Matrix, Singular


class AxiomError(ValueError):
    def __init__(self, report):
        self.report = report
        worst = ", ".join(f"({k}): {len(v)} violations" for k, v in sorted(report.items()) if v)
        super().__init__(f"structure constants violate the defining equations: {worst}")


class NotAnInvolution(ValueError):
    pass


class NotInGroup(ValueError):
    pass


class StructureConstants:
    __slots__ = ("n", "alpha", "gamma", "field", "validated", "terms")

    def __init__(self, n, alpha, gamma, field, validated=False):
        self.n = n
        self.alpha = tuple(tuple(tuple(field.lift(x) for x in row) for row in plane) for plane in alpha)
        self.gamma = tuple(tuple(field.lift(x) for x in row) for row in gamma)
        self.field = field
        self.validated = validated
        # terms[i][j] maps k to alpha[i][j][k], for the nonzero entries only
        self.terms = tuple(tuple({k: a for k, a in enumerate(row) if not a.is_zero()} for row in plane)
                           for plane in self.alpha)

    def gamma_matrix(self) -> Matrix:
        return Matrix.from_rows(self.gamma, self.field)

    def multiply(self, x, y):
        """Coordinates of the product of two coordinate vectors."""
        lift = self.field.lift
        out = {}
        for i, xi in enumerate(x):
            xi = lift(xi)
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                yj = lift(yj)
                if not yj.is_zero():
                    _add_scaled(out, xi * yj, self.terms[i][j])
        return tuple(out.get(k, self.field.zero) for k in range(self.n))

    def sigma(self, x):
        return self.gamma_matrix().apply(x)

    def __eq__(self, other):
        if not isinstance(other, StructureConstants):
            return NotImplemented
        return self.n == other.n and self.alpha == other.alpha and self.gamma == other.gamma

    __hash__ = None

    def __repr__(self):
        return f"StructureConstants(n={self.n}, field={self.field.name}, validated={self.validated})"


def _add_scaled(acc, w, terms):
    """acc += w * terms, both held as {index: value} dicts."""
    for k, v in terms.items():
        x = w * v
        acc[k] = acc[k] + x if k in acc else x


def _along(t, mat, axis, idx=None):
    """Contract index `axis` of the 3-tensor t with the n x n matrix mat.

    t[i][j] maps k to the nonzero t[i][j][k], and so does the result, in
    which only the planes (i, j) with i and j in idx (default: all) are
    filled.  On the input axes 0 and 1 the new index c sums
    mat[p][c] * t[..p..], because column c of a basis change is the new e_c;
    on the output axis 2 it sums mat[c][p] * t[i][j][p].
    """
    n = len(mat)
    idx = range(n) if idx is None else idx
    out = [[{} for _ in range(n)] for _ in range(n)]
    if axis == 2:
        weights = [[(c, mat[c][p]) for c in range(n) if not mat[c][p].is_zero()] for p in range(n)]
        for i in idx:
            for j in idx:
                acc = out[i][j]
                for p, v in t[i][j].items():
                    for c, w in weights[p]:
                        x = w * v
                        acc[c] = acc[c] + x if c in acc else x
    else:
        weights = [[(c, mat[p][c]) for c in idx if not mat[p][c].is_zero()] for p in range(n)]
        for p in range(n):
            for q in idx:
                for c, w in weights[p]:
                    if axis == 0:
                        _add_scaled(out[c][q], w, t[p][q])
                    else:
                        _add_scaled(out[q][c], w, t[q][p])
    return [[{k: v for k, v in acc.items() if not v.is_zero()} for acc in plane] for plane in out]


def check_axioms(sc: StructureConstants, unital: bool = True) -> dict:
    """Evaluate the defining equations; maps family number -> violated index tuples."""
    n, gamma, terms = sc.n, sc.gamma, sc.terms
    z = sc.field.zero
    one = sc.field.one
    report = {k: [] for k in ((1, 2, 3, 4, 5, 6) if unital else (3, 5, 6))}

    def delta(a, b):
        return one if a == b else z

    if unital:
        for i in range(n):
            for j in range(n):
                if not (sc.alpha[0][i][j] == delta(i, j)):
                    report[1].append((i + 1, j + 1))
                if not (sc.alpha[i][0][j] == delta(i, j)):
                    report[2].append((i + 1, j + 1))
        for j in range(n):
            if not (gamma[j][0] == delta(j, 0)):
                report[4].append((j + 1,))
    # a unit fixed by sigma implies the equations of families 3 and 5 that
    # involve it (module docstring)
    idx = range(1 if unital and not (report[1] or report[2] or report[4]) else 0, n)
    # associativity: (e_i e_j) e_k = e_i (e_j e_k), coefficient of e_m
    for i in idx:
        for j in idx:
            for k in idx:
                res = {}
                for l, a in terms[i][j].items():
                    _add_scaled(res, a, terms[l][k])
                for l, a in terms[j][k].items():
                    _add_scaled(res, -a, terms[i][l])
                report[3].extend((i + 1, j + 1, k + 1, m + 1) for m in sorted(res) if not res[m].is_zero())
    # sigma multiplicative: sigma(e_i e_j) against sigma(e_i) sigma(e_j)
    lhs = _along(terms, gamma, 2, idx)
    rhs = _along(_along(terms, gamma, 0), gamma, 1, idx)
    for i in idx:
        for j in idx:
            for m in range(n):
                if not (lhs[i][j].get(m, z) - rhs[i][j].get(m, z)).is_zero():
                    report[5].append((i + 1, j + 1, m + 1))
    # sigma involutive
    for i in range(n):
        for k in range(n):
            acc = -delta(i, k)
            for j in range(n):
                g = gamma[j][i]
                if not g.is_zero():
                    acc = acc + g * gamma[k][j]
            if not acc.is_zero():
                report[6].append((i + 1, k + 1))
    return {k: tuple(v) for k, v in report.items()}


def axioms_ok(report: dict) -> bool:
    return all(not v for v in report.values())


def validate(sc: StructureConstants) -> StructureConstants:
    if sc.validated:
        return sc
    report = check_axioms(sc, unital=True)
    if not axioms_ok(report):
        raise AxiomError(report)
    sc.validated = True
    return sc


@dataclass(frozen=True)
class GradedSplit:
    basis0: tuple
    basis1: tuple
    dim0: int


def grading_split(sc: StructureConstants) -> GradedSplit:
    """Eigenbasis of the involution; checks the trace and determinant laws."""
    n = sc.n
    g = sc.gamma_matrix()
    ident = Matrix.identity(n, sc.field)
    if g * g != ident:
        raise NotAnInvolution("gamma squared is not the identity")
    plus_rows = [[g.at(r, c) - (sc.field.one if r == c else sc.field.zero) for c in range(n)] for r in range(n)]
    minus_rows = [[g.at(r, c) + (sc.field.one if r == c else sc.field.zero) for c in range(n)] for r in range(n)]
    basis0 = Matrix.from_rows(plus_rows, sc.field).kernel_basis()
    basis1 = Matrix.from_rows(minus_rows, sc.field).kernel_basis()
    i = len(basis0)
    if i + len(basis1) != n:
        raise NotAnInvolution("eigenspaces of gamma do not span")
    tr = sc.field.zero
    for r in range(n):
        tr = tr + g.at(r, r)
    if not (tr == 2 * i - n):
        raise NotAnInvolution(f"trace of gamma is not 2*{i}-{n}")
    if not (g.determinant() == (-1) ** (n - i)):
        raise NotAnInvolution(f"det of gamma is not (-1)^({n}-{i})")
    e1 = tuple(sc.field.one if k == 0 else sc.field.zero for k in range(n))
    if sc.sigma(e1) != e1:
        raise NotAnInvolution("the unit is not even")
    return GradedSplit(tuple(basis0), tuple(basis1), i)


def group_element(matrix: Matrix) -> Matrix:
    """Check membership in the basis-change group fixing the unit."""
    n = matrix.rows
    if matrix.cols != n:
        raise NotInGroup("group elements are square")
    first = matrix.column(0)
    expected = tuple(matrix.field.one if r == 0 else matrix.field.zero for r in range(n))
    if not all(a == b for a, b in zip(first, expected)):
        raise NotInGroup("first column must be the unit vector e_1")
    if matrix.determinant().is_zero():
        raise NotInGroup("matrix is singular")
    return matrix


def transport(g: Matrix, sc: StructureConstants, field=None, revalidate=True) -> StructureConstants:
    """Structure constants in the new basis whose vectors are the columns of g."""
    field = field or sc.field
    group_element(g)
    n = sc.n
    try:
        nu = g.inverse()
    except Singular as exc:  # pragma: no cover - group_element already checked
        raise NotInGroup(str(exc)) from exc
    lam = [[field.lift(g.at(r, c)) for c in range(n)] for r in range(n)]
    inv = [[field.lift(x) for x in row] for row in nu.to_lists()]
    terms = [[{k: field.lift(a) for k, a in row.items()} for row in plane] for plane in sc.terms]
    moved = _along(_along(_along(terms, lam, 0), lam, 1), inv, 2)
    alpha = [[[row.get(k, field.zero) for k in range(n)] for row in plane] for plane in moved]
    gmat = nu * sc.gamma_matrix().map_entries(field.lift, field) * g
    out = StructureConstants(n, alpha, gmat.to_lists(), field)
    if revalidate:
        validate(out)
    return out


def transport_algebra(g: Matrix, alpha, field):
    """The same base change on a bare algebra point (no grading)."""
    n = len(alpha)
    ident = [[field.one if r == c else field.zero for c in range(n)] for r in range(n)]
    sc = StructureConstants(n, alpha, ident, field)
    return transport(g, sc, revalidate=False).alpha


def forget_grading(sc: StructureConstants):
    """The underlying algebra point: the alpha block alone."""
    return sc.alpha


def with_trivial_grading(alpha, field) -> StructureConstants:
    """Endow an algebra point with the grading whose involution is the identity."""
    n = len(alpha)
    ident = [[field.one if r == c else field.zero for c in range(n)] for r in range(n)]
    return validate(StructureConstants(n, alpha, ident, field))


def cn_structure(n: int, i: int, field=FIELD_C8) -> StructureConstants:
    """The square-zero-radical superalgebra with an i-dimensional even part.

    Products of the non-unit basis vectors all vanish; the first i basis
    vectors (including the unit) are even, the rest odd.
    """
    if not 1 <= i <= n:
        raise ValueError(f"even dimension {i} out of range 1..{n}")
    z, one = field.zero, field.one
    alpha = [[[z] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        alpha[0][j][j] = one
        alpha[j][0][j] = one
    gamma = [[(one if r < i else -one) if r == c else z for c in range(n)] for r in range(n)]
    return validate(StructureConstants(n, alpha, gamma, field))


def random_group_element(rng, n, field=FIELD_C8, span=2) -> Matrix:
    """Random small-integer member of the basis-change group (unit fixed)."""
    while True:
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                if c == 0:
                    row.append(field.one if r == 0 else field.zero)
                else:
                    row.append(field.lift(rng.randint(-span, span)))
            rows.append(row)
        m = Matrix.from_rows(rows, field)
        if not m.determinant().is_zero():
            return m
