"""Transport-invariant data of a superalgebra point.

The stabilizer dimension is computed as the dimension of the space of
derivations commuting with the involution: one exact kernel computation,
and in characteristic 0 it equals the dimension of the automorphism group.
The orbit dimension follows by subtracting from the group dimension n^2 - n.

On a validated point the system is taken without the unit.  Equation
families 1, 2 and 4 hold there: e_1 (index 0) is a two-sided unit fixed by
the involution.  The rows of (i, j) = (1, 1) read D(e_1) = 2 D(e_1), so
D(e_1) = 0.  A row with i = 1 or j = 1 then reads D(e_1) e_j = 0 or
e_i D(e_1) = 0, and a graded row of column c = 1 involves only D(e_1),
because sigma(e_1) = e_1; all of them follow from D(e_1) = 0.  The other
rows use D(e_1) only in terms c^1_ij D(e_1) and D(e_1) gamma, which vanish.
So the derivations are the solutions of the rows with i, j >= 2 and
c >= 2 in the n(n - 1) unknowns D(e_c), c >= 2: for n = 4 a 48 x 12 system
(36 x 12 ungraded) where the full one is 80 x 16 (64 x 16).

A point with an integer image (`structure`: A = D * alpha, C = E * gamma)
builds its rows on ints, one l-slice of (A, C) at a time: the rows are
linear in alpha and gamma, so the slices' rows, zipped into int
polynomials, are the rows times D (products) or E (graded), which keeps the
rank.  `linalg.int_poly_rank` ranks them at one point above their root
bound, with no LambdaRat row built; at degree 0 (a fixed catalog entry)
they go to `linalg._int_rank` as they are.

The closed, transport-stable sets A..E are decided in one pass over a
point (`closed_set_member`): its table holds A and B, and C, D and E when
dim A_0 = 2, with J(A_0) solved once.  The fingerprint reads its flags and
dim J = int(C) from that table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, _int_rank, int_poly_rank
from .structure import StructureConstants, _image, _slices, grading_split


class NotClosed(ValueError):
    pass


class WrongComponent(ValueError):
    pass


def _derivation_rows(n, terms, gamma, zero, graded: bool, first: int):
    """Rows of the derivation system of the point (terms, gamma) on the
    indices first..n-1, in the unknowns D[r][c] with c >= first, row-major
    (D[r][c] is the coefficient of e_r in D(e_c)).  Entries are field
    scalars or ints, tested for zero by truth."""
    w = n - first
    rows = []
    # D(e_i e_j) = D(e_i) e_j + e_i D(e_j), coefficient of e_k: row k of block
    for i in range(first, n):
        for j in range(first, n):
            block = [[zero] * (n * w) for _ in range(n)]
            for l, a in terms[i][j].items():
                if l >= first:
                    for k in range(n):
                        block[k][k * w + l - first] += a
            for l in range(n):
                for k, b in terms[l][j].items():
                    block[k][l * w + i - first] -= b
                for k, c in terms[i][l].items():
                    block[k][l * w + j - first] -= c
            rows.extend(block)
    if graded:
        # D gamma = gamma D
        for r in range(n):
            for c in range(first, n):
                row = [zero] * (n * w)
                for l in range(first, n):
                    g = gamma[l][c]
                    if g:
                        row[r * w + l - first] = row[r * w + l - first] + g
                for l in range(n):
                    g2 = gamma[r][l]
                    if g2:
                        row[l * w + c - first] = row[l * w + c - first] - g2
                rows.append(row)
    return rows


def derivation_system(sc: StructureConstants, graded: bool = True):
    """Rows of the linear system cutting out (graded) derivations D, as vectors
    in the n*n unknowns D[r][c] (row-major)."""
    return _derivation_rows(sc.n, sc.terms, sc.gamma, sc.field.zero, graded, 0)


def stabilizer_dim(sc: StructureConstants, graded: bool = True) -> int:
    """Kernel dimension of the derivation system; with graded=False the
    grading is ignored and the result is the underlying algebra's value.
    A validated point takes the system without the unit, and a point with
    an integer image builds it on ints (module docstring)."""
    n, first = sc.n, 1 if sc.validated else 0
    img = _image(sc)
    if img is None:
        m = Matrix.from_rows(_derivation_rows(n, sc.terms, sc.gamma, sc.field.zero, graded, first), sc.field)
        return m.cols - m.rank()
    slices = [_derivation_rows(n, terms, gamma, 0, graded, first) for terms, gamma in _slices(img)]
    cols = n * (n - first)
    if len(slices) == 1:  # constants: the rows are the int matrix
        return cols - _int_rank(map(tuple, slices[0]), cols)
    return cols - int_poly_rank([list(zip(*rows)) for rows in zip(*slices)], cols)


def orbit_dim(sc: StructureConstants) -> int:
    return sc.n * sc.n - sc.n - stabilizer_dim(sc)


def _span_rank(sc, vectors) -> int:
    if not vectors:
        return 0
    return Matrix.from_rows([list(v) for v in vectors], sc.field).rank()


def _coords_in(sc, basis, vector):
    m = Matrix.from_rows([list(b) for b in basis], sc.field).transpose()
    return m.solve(vector)


def subalgebra_multiplication(sc: StructureConstants, basis):
    """Coefficient table of the restricted product; NotClosed if it leaves the span."""
    table = []
    for u in basis:
        row = []
        for v in basis:
            coords = _coords_in(sc, basis, sc.multiply(u, v))
            if coords is None:
                raise NotClosed("products leave the span of the given basis")
            row.append(coords)
        table.append(row)
    return table


def radical_basis(sc: StructureConstants, basis):
    """Basis of the radical of a subalgebra, by the trace form of left multiplication.

    Characteristic 0 only: x is in the radical exactly when tr(L_{xy}) vanishes
    for all y in the subalgebra.
    """
    m = len(basis)
    table = subalgebra_multiplication(sc, basis)
    z = sc.field.zero
    # tr of left multiplication by each basis element
    traces = []
    for p in range(m):
        tr = z
        for q in range(m):
            tr = tr + table[p][q][q]
        traces.append(tr)
    gram = []
    for p in range(m):
        row = []
        for q in range(m):
            acc = z
            for r in range(m):
                c = table[p][q][r]
                if not c.is_zero():
                    acc = acc + c * traces[r]
            row.append(acc)
        gram.append(row)
    kernel = Matrix.from_rows(gram, sc.field).kernel_basis()
    out = []
    for coeffs in kernel:
        vec = [z] * sc.n
        for c, b in zip(coeffs, basis):
            if not c.is_zero():
                for k in range(sc.n):
                    vec[k] = vec[k] + c * sc.field.lift(b[k])
        out.append(tuple(vec))
    return out


def square_zero_subspace_dim2(sc: StructureConstants, basis0):
    """Direct solve of {x in A_0 : x^2 = 0} when A_0 is 2-dimensional and unital.

    Writing A_0 = span{1, u} with u^2 = c0 + c1 u, the solutions form the zero
    space unless c1^2 + 4 c0 = 0, in which case they are the line through
    u - (c1/2).  This is the independent oracle for the trace-form radical.
    """
    n = sc.n
    if len(basis0) != 2:
        raise WrongComponent("square-zero solve needs a 2-dimensional even part")
    e1 = tuple(sc.field.one if k == 0 else sc.field.zero for k in range(n))
    coords_e1 = _coords_in(sc, basis0, e1)
    if coords_e1 is None:
        raise NotClosed("the unit is not in the span of the even basis")
    # pick a basis {1, u} of the span
    if not coords_e1[0].is_zero():
        u = basis0[1]
    else:
        u = basis0[0]
    pair = (e1, tuple(sc.field.lift(x) for x in u))
    usq = sc.multiply(pair[1], pair[1])
    coords = _coords_in(sc, pair, usq)
    if coords is None:
        raise NotClosed("the even part is not closed under multiplication")
    c0, c1 = coords
    disc = c1 * c1 + 4 * c0
    if not disc.is_zero():
        return []
    shift = c1 / 2
    line = tuple(sc.field.lift(pair[1][k]) - shift * e1[k] for k in range(n))
    return [line]


def _nonzero(vector) -> bool:
    return any(not c.is_zero() for c in vector)


def closed_set_member(sc: StructureConstants, split=None) -> dict:
    """The point's table of the closed, transport-stable sets: set name ->
    whether the point lies in it, in the order A, B, C, D, E.

    A: the odd part squares to zero.       B: the even part is commutative.
    On the component with a 2-dimensional even part only:
    C: dim J(A_0) = 1; J is the square-zero subspace of A_0.
    D: C and J(A_0) * A_1 = 0.             E: C and A_1 * J(A_0) = 0.
    """
    split = split or grading_split(sc)
    even, odd = split.basis0, split.basis1
    table = {"A": not any(_nonzero(sc.multiply(u, v)) for u in odd for v in odd),
             "B": not any(_nonzero(a - b for a, b in zip(sc.multiply(u, v), sc.multiply(v, u)))
                          for p, u in enumerate(even) for v in even[p + 1:])}
    if split.dim0 == 2:
        j = square_zero_subspace_dim2(sc, even)
        table["C"] = len(j) == 1
        table["D"] = table["C"] and not any(_nonzero(sc.multiply(j[0], w)) for w in odd)
        table["E"] = table["C"] and not any(_nonzero(sc.multiply(w, j[0])) for w in odd)
    return table


@dataclass(frozen=True)
class Fingerprint:
    """Per-orbit record; every field is invariant under transport."""

    n: int
    dim0: int
    stab_dim: int
    orbit_dim: int
    flag_a: bool
    flag_b: bool
    dim_j: int | None
    flag_d: bool | None
    flag_e: bool | None
    dim_odd_square: int
    dim_radical: int


def fingerprint(sc: StructureConstants) -> Fingerprint:
    split = grading_split(sc)
    stab = stabilizer_dim(sc)
    sets = closed_set_member(sc, split)
    products = [sc.multiply(u, v) for u in split.basis1 for v in split.basis1]
    dim_odd_square = _span_rank(sc, [p for p in products if _nonzero(p)])
    n = sc.n
    full = [tuple(sc.field.one if k == i else sc.field.zero for k in range(n)) for i in range(n)]
    dim_radical = len(radical_basis(sc, full))
    return Fingerprint(
        n=n,
        dim0=split.dim0,
        stab_dim=stab,
        orbit_dim=n * n - n - stab,
        flag_a=sets["A"],
        flag_b=sets["B"],
        dim_j=int(sets["C"]) if "C" in sets else None,
        flag_d=sets.get("D"),
        flag_e=sets.get("E"),
        dim_odd_square=dim_odd_square,
        dim_radical=dim_radical,
    )
