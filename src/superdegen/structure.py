"""Superalgebra points: structure constants, defining equations, transport.

A point is (alpha, gamma) where alpha[i][j][k] is the coefficient of e_k in
e_i e_j and gamma is the matrix of the involution, column i holding the image
of e_i.  Basis index 0 is always the unit.  The defining equation families
are numbered 1..6:

  1: e_1 e_i = e_i            4: sigma(e_1) = e_1
  2: e_i e_1 = e_i            5: sigma(e_i e_j) = sigma(e_i) sigma(e_j)
  3: associativity             6: sigma^2 = id

When families 1, 2 and 4 hold, e_1 is a two-sided unit fixed by sigma, and
every equation of families 3 and 5 with an index on e_1 follows from them:
(e_1 e_j) e_k = e_j e_k = e_1 (e_j e_k), likewise with e_1 in the middle or
last place, and sigma(e_1 e_j) = sigma(e_j) = sigma(e_1) sigma(e_j), likewise
for e_j e_1.  `check_axioms` then evaluates only the triples and pairs on
indices 2..n (27 of 64 and 9 of 16 for n = 4).  Otherwise it evaluates all
of them, so a report of violations does not depend on the shortcut.

The tensor loops visit only the nonzero structure constants
(`StructureConstants.terms`).  Transport contracts them with `_along`.
Family 3 sums (e_i e_j) e_k - e_i (e_j e_k) over them into one dict keyed
(i, j, k, m).  Family 5 is one pass over them and over the nonzero entries
of gamma's columns and rows, summing E sigma(e_i e_j) - sigma(e_i)
sigma(e_j) into one dict keyed (i, j, m) (E is 1 off the integer image,
below).  All these
loops run on field scalars and on Python ints alike: a scalar is zero
exactly when it is false.

Integer image.  A point over Q(z)(l) whose constants are polynomials in l
with rational coefficients (the families, and what a g over Q makes of
them) has one: with common denominators D of alpha and E of gamma,
A = D * alpha and C = E * gamma are int coefficient lists of degree at most
d (`linalg.integer_polys`).  Times D, D, D^2, E, D * E^2 and E^2, the
equations of families 1..6 are int polynomials in l.  With M the largest
of D, E and every coefficient size in A and C, each equation sums at most
n^2 + n products of at most three polynomials of degree at most d (family
5 reads E * A C = C C A), so its coefficients are below
x0 = (n^2 + n) (d+1)^2 M^3 + 1, and by Cauchy's bound (`linalg`) a nonzero
one does not vanish at x0.  `check_axioms` evaluates the image at l = x0
alone (at d = 0 it reads the ints as they are) and reports an index
exactly when its equation is nonzero there.  The image is kept on the
point: the catalog supplies each entry's whose literals are all int
polynomials in l (degree 0 for a fixed entry), and `_image` reads any
other's once.  It reads the image from those constants
or the literals they were parsed from, so revalidation checks what
transport produced.  Other points are checked over their field.

Transport by the adjugate (`linalg.adjugate`): alpha is contracted with g,
g and adj(g), gamma becomes adj(g) gamma g, and both are divided by det(g)
once (`_moved`).  A point with an integer image moved by a g over Q runs on
ints: with G = Dg * g, g^-1 = Dg * adj(G) / det(G), so each l-slice of A is
contracted with G, G and adj(G) and divided by Dg * det(G) * D, and gamma
is adj(G) C G / (det(G) * E).  Other points fold 1/det(g) into adj(g), and
certificates read the numerators (`moved_numerators`).  `transport` tests
det(g) for zero where the adjugate gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclo import _make
from .linalg import FIELD_C8, FIELD_LRAT, Matrix, adjugate, integer_polys
from .polys import ONE_POLY, peval
from .scalars import LambdaRat


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
    __slots__ = ("n", "alpha", "gamma", "field", "validated", "image", "_terms")

    def __init__(self, n, alpha, gamma, field, validated=False, image=None):
        lift = field.lift
        self.n = n
        self.alpha = tuple(tuple(tuple(map(lift, row)) for row in plane) for plane in alpha)
        self.gamma = tuple(tuple(map(lift, row)) for row in gamma)
        self.field = field
        self.validated = validated
        self.image = image  # the integer image; False for none, None until `_image` reads it
        self._terms = None

    @property
    def terms(self):
        """terms[i][j] maps k to alpha[i][j][k], for the nonzero entries only; made on first use."""
        if self._terms is None:
            self._terms = tuple(tuple({k: a for k, a in enumerate(row) if not a.is_zero()} for row in plane)
                                for plane in self.alpha)
        return self._terms

    def multiply(self, x, y):
        """Coordinates of the product of two coordinate vectors."""
        lift, terms = self.field.lift, self.terms
        out = {}
        for i, xi in enumerate(x):
            xi = lift(xi)
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                yj = lift(yj)
                if not yj.is_zero():
                    _add_scaled(out, xi * yj, terms[i][j])
        return tuple(out.get(k, self.field.zero) for k in range(self.n))

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


def _along(t, mat, axis):
    """Contract index `axis` of the 3-tensor t with the n x n matrix mat.

    t[i][j] maps k to the nonzero t[i][j][k], and so does the result.  On
    the input axes 0 and 1 the new index c sums mat[p][c] * t[..p..],
    because column c of a basis change is the new e_c; on the output axis 2
    it sums mat[c][p] * t[i][j][p].
    """
    n = len(mat)
    out = [[{} for _ in range(n)] for _ in range(n)]
    if axis == 2:
        weights = [[(c, mat[c][p]) for c in range(n) if mat[c][p]] for p in range(n)]
        for i in range(n):
            for j in range(n):
                acc = out[i][j]
                for p, v in t[i][j].items():
                    for c, w in weights[p]:
                        x = w * v
                        acc[c] = acc[c] + x if c in acc else x
    else:
        weights = [[(c, mat[p][c]) for c in range(n) if mat[p][c]] for p in range(n)]
        for p in range(n):
            for q in range(n):
                for c, w in weights[p]:
                    if axis == 0:
                        _add_scaled(out[c][q], w, t[p][q])
                    else:
                        _add_scaled(out[q][c], w, t[q][p])
    return [[{k: v for k, v in acc.items() if v} for acc in plane] for plane in out]


def _image(sc):
    """The integer image (module docstring) as (D, A, E, C, d), A[i][j][k]
    and C[r][c] being int coefficient lists in l; None if there is none.
    Kept on the point, read off its constants on first use."""
    if sc.image is not None or sc.field is not FIELD_LRAT:
        return sc.image or None
    sc.image = False
    flat = [x for plane in sc.alpha for row in plane for x in row] + [x for row in sc.gamma for x in row]
    if any(len(x.den) > 1 for x in flat):
        return None
    n, cut = sc.n, sc.n ** 3
    a, c = integer_polys([x.num for x in flat[:cut]]), integer_polys([x.num for x in flat[cut:]])
    if a is None or c is None:
        return None
    alpha = [[a[1][(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    sc.image = a[0], alpha, c[0], [c[1][r * n:(r + 1) * n] for r in range(n)], max(map(len, a[1] + c[1])) - 1
    return sc.image


def _slices(img):
    """The l-slices of the integer image img: for e = 0..d, the terms dicts
    of the coefficients of l^e in A and the rows of those in C."""
    _, alpha, _, gamma, d = img
    return [([[{k: p[e] for k, p in enumerate(row) if len(p) > e and p[e]} for row in plane] for plane in alpha],
             [[p[e] if len(p) > e else 0 for p in row] for row in gamma]) for e in range(d + 1)]


def _point(sc):
    """What the equation loops run on, as (terms, gamma, D, E, zero): the
    integer image at l = x0 above its root bound (module docstring), or the
    point's own constants."""
    img = _image(sc)
    if img is None:
        return sc.terms, sc.gamma, sc.field.one, sc.field.one, sc.field.zero
    den, alpha, eden, gamma, d = img
    if not d:  # constants: the slice of l^0 is the point
        return (*_slices(img)[0], den, eden, 0)
    m = max(den, eden, *(abs(c) for rows in (*alpha, gamma) for row in rows for p in row for c in p))
    x = (sc.n ** 2 + sc.n) * (d + 1) ** 2 * m ** 3 + 1
    return ([[{k: v for k, p in enumerate(row) if (v := peval(p, x, 0))} for row in plane] for plane in alpha],
            [[peval(p, x, 0) for p in row] for row in gamma], den, eden, 0)


def check_axioms(sc: StructureConstants) -> dict:
    """Evaluate the defining equations, on the integer image if there is one;
    maps family number -> violated index tuples, in lexicographic order."""
    n = sc.n
    terms, gamma, du, ge, z = _point(sc)
    report = {k: set() for k in (1, 2, 3, 4, 5, 6)}
    for i in range(n):
        for j in range(n):
            one = du if i == j else z
            if not (terms[0][i].get(j, z) == one):
                report[1].add((i + 1, j + 1))
            if not (terms[i][0].get(j, z) == one):
                report[2].add((i + 1, j + 1))
    for j in range(n):
        if not (gamma[j][0] == (ge if j == 0 else z)):
            report[4].add((j + 1,))
    # a unit fixed by sigma implies the equations of families 3 and 5 that
    # involve it (module docstring)
    idx = range(0 if report[1] or report[2] or report[4] else 1, n)
    # associativity, coefficient of e_m: a nonzero a = alpha_ij^l enters the
    # triples (i, j, h) as (e_i e_j) e_h and (h, i, j) as e_h (e_i e_j)
    assoc = {}
    for i in idx:
        for j in idx:
            for l, a in terms[i][j].items():
                for h in idx:
                    for m, b in terms[l][h].items():
                        key, x = (i, j, h, m), a * b
                        assoc[key] = assoc[key] + x if key in assoc else x
                    for m, b in terms[h][l].items():
                        key, x = (h, i, j, m), a * b
                        assoc[key] = assoc[key] - x if key in assoc else -x
    report[3].update((i + 1, j + 1, k + 1, m + 1) for (i, j, k, m), v in assoc.items() if v)
    # sigma multiplicative: E * sigma(e_i e_j) - sigma(e_i) sigma(e_j) in one
    # dict keyed (i, j, m), from the nonzero products and the nonzero entries
    # of gamma's columns and rows; the left side has one factor gamma =
    # E * sigma fewer, so it is scaled by E.  The right side is summed as
    # sum_k gamma[k][i] (e_k sigma(e_j)).
    scaled = gamma if ge == 1 else [[ge * x for x in row] for row in gamma]
    cols = [[(m, scaled[m][k]) for m in range(n) if gamma[m][k]] for k in range(n)]
    rows = [[(i, gamma[k][i]) for i in idx if gamma[k][i]] for k in range(n)]
    diff = {}
    for i in idx:
        for j in idx:
            for k, a in terms[i][j].items():
                for m, w in cols[k]:
                    key, x = (i, j, m), w * a
                    diff[key] = diff[key] + x if key in diff else x
    for k in range(n):
        if not rows[k]:
            continue
        right = {}
        for l in range(n):
            for j, v in rows[l]:
                for m, a in terms[k][l].items():
                    key, x = (j, m), v * a
                    right[key] = right[key] + x if key in right else x
        for (j, m), y in right.items():
            for i, w in rows[k]:
                key, x = (i, j, m), w * y
                diff[key] = diff[key] - x if key in diff else -x
    report[5].update((i + 1, j + 1, m + 1) for (i, j, m), v in diff.items() if v)
    # sigma involutive
    for i in range(n):
        for k in range(n):
            acc = -(ge * ge) if i == k else z
            for j in range(n):
                if gamma[j][i]:
                    acc = acc + gamma[j][i] * gamma[k][j]
            if acc:
                report[6].add((i + 1, k + 1))
    return {k: tuple(sorted(v)) for k, v in report.items()}


def axioms_ok(report: dict) -> bool:
    return all(not v for v in report.values())


def validate(sc: StructureConstants) -> StructureConstants:
    if sc.validated:
        return sc
    report = check_axioms(sc)
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
    """Eigenbasis of the involution; in characteristic 0, gamma^2 = 1 implies the trace and determinant laws."""
    n, g, one, zero = sc.n, sc.gamma, sc.field.one, sc.field.zero
    square = _matmul(g, g, zero)
    if any(not (square[r][c] == (one if r == c else zero)) for r in range(n) for c in range(n)):
        raise NotAnInvolution("gamma squared is not the identity")
    if any(not (g[r][0] == (one if r == 0 else zero)) for r in range(n)):
        raise NotAnInvolution("the unit is not even")
    # the kernels of gamma - 1 and gamma + 1
    shifted = [[[x + s if r == c else x for c, x in enumerate(row)] for r, row in enumerate(g)] for s in (-one, one)]
    basis0, basis1 = (Matrix.from_rows(rows, sc.field).kernel_basis() for rows in shifted)
    return GradedSplit(tuple(basis0), tuple(basis1), len(basis0))


def _fixes_unit(matrix: Matrix):
    """The checks of `group_element` before the determinant."""
    n = matrix.rows
    if matrix.cols != n:
        raise NotInGroup("group elements are square")
    first = matrix.column(0)
    expected = tuple(matrix.field.one if r == 0 else matrix.field.zero for r in range(n))
    if not all(a == b for a, b in zip(first, expected)):
        raise NotInGroup("first column must be the unit vector e_1")


def group_element(matrix: Matrix) -> Matrix:
    """Check membership in the basis-change group fixing the unit."""
    _fixes_unit(matrix)
    if matrix.determinant().is_zero():
        raise NotInGroup("matrix is singular")
    return matrix


def _matmul(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col) if x and y), zero) for col in zip(*b)] for row in a]


def _moved(terms, gamma, g, h, zero):
    """The one transport rule: alpha contracted with g, g and h (terms
    dicts), and the rows of h gamma g; h is adj(g), or adj(g) / det(g)."""
    return _along(_along(_along(terms, g, 0), g, 1), h, 2), _matmul(_matmul(h, gamma, zero), g, zero)


def moved_numerators(g: Matrix, sc: StructureConstants, field, divide=False):
    """(N, M, det g) for sc moved by g over field, g unchecked: N[i][j] maps
    k to the nonzero det(g) * alpha'[i][j][k], M holds det(g) * gamma'.
    With divide, 1/det(g) is folded into adj(g): N and M are alpha', gamma',
    and a singular g raises NotInGroup."""
    lam = [[field.lift(x) for x in row] for row in g.to_lists()]
    adj, det = adjugate(lam, field.zero, field.one)
    if divide:
        if not det:
            raise NotInGroup("matrix is singular")
        inv = 1 / det
        adj = [[x * inv for x in row] for row in adj]
    terms = [[{k: field.lift(a) for k, a in row.items()} for row in plane] for plane in sc.terms]
    gamma = [[field.lift(x) for x in row] for row in sc.gamma]
    return _moved(terms, gamma, lam, adj, field.zero) + (det,)


def _transport_image(g, sc):
    """`transport` of a point with an integer image by a g over Q, on ints
    (module docstring): (alpha, gamma), or None for any other point or g."""
    field = sc.field
    if field is not FIELD_LRAT:
        return None
    consts = [x.num if len(x.num) < 2 and len(x.den) == 1 else None for x in map(field.lift, g.entries)]
    img = None if None in consts else _image(sc)
    gi = img and integer_polys(consts)
    if gi is None:
        return None
    n, (dg, flat), (den, _, eden, _, _) = sc.n, gi, img
    gm = [[p[0] if p else 0 for p in flat[r * n:(r + 1) * n]] for r in range(n)]
    adj, det = adjugate(gm)
    if not det:
        raise NotInGroup("matrix is singular")
    slices = [_moved(terms, c, gm, adj, 0) for terms, c in _slices(img)]

    def scalar(coeffs, q):
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        return LambdaRat._reduced(tuple(_make(c, 0, 0, 0, q) for c in coeffs), ONE_POLY) if coeffs else field.zero
    return ([[[scalar([m[i][j].get(k, 0) for m, _ in slices], dg * det * den) for k in range(n)] for j in range(n)]
             for i in range(n)],
            [[scalar([c[r][col] for _, c in slices], det * eden) for col in range(n)] for r in range(n)])


def transport(g: Matrix, sc: StructureConstants, revalidate=True) -> StructureConstants:
    """Structure constants in the new basis whose vectors are the columns of
    g, by the adjugate (module docstring)."""
    field = sc.field
    _fixes_unit(g)  # det(g) = 0 is caught where the adjugate is taken
    n = sc.n
    moved = _transport_image(g, sc)
    if moved is not None:
        alpha, gamma = moved
    else:
        moved, gamma, _ = moved_numerators(g, sc, field, divide=True)
        alpha = [[[row.get(k, field.zero) for k in range(n)] for row in plane] for plane in moved]
    out = StructureConstants(n, alpha, gamma, field)
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
