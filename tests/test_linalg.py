import importlib.util
import random
from collections import Counter
from contextlib import contextmanager
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdegen import linalg
from superdegen.certs import load_cert_file
from superdegen.cyclo import C8_ONE, C8_ZERO, ZETA, Cyclo8
from superdegen.invariants import derivation_system, stabilizer_dim
from superdegen.linalg import FIELD_C8, FIELD_LRAT, FIELD_TRAT, Matrix, Singular, _forward, adjugate
from superdegen.scalars import LAMBDA, LambdaRat
from superdegen.structure import random_group_element, transport
from superdegen.tpoly import T_VAR

from helpers import matmul, matrix_over_trat


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def M(rows):
    return Matrix.from_rows(rows, FIELD_C8)


def _apply(m, vec):
    """The product of the matrix m and the coordinate vector vec."""
    return tuple(sum((a * m.field.lift(x) for a, x in zip(m.row(r), vec)), m.field.zero) for r in range(m.rows))


def test_kernel_examples():
    assert Matrix.identity(4, FIELD_C8).kernel_basis() == []
    z = Matrix(2, 2, [0, 0, 0, 0], FIELD_C8)
    assert len(z.kernel_basis()) == 2
    k = M([[1, 1], [1, 1]]).kernel_basis()
    assert len(k) == 1
    v = k[0]
    assert v[0] + v[1] == 0 and not v[0].is_zero()


def test_kernel_vectors_annihilate():
    rng = random.Random(3)
    for _ in range(15):
        rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        m = M(rows)
        for v in m.kernel_basis():
            assert all(x.is_zero() for x in _apply(m, v))
        assert m.rank() + len(m.kernel_basis()) == m.cols


def test_inverse_examples():
    ident = Matrix.identity(3, FIELD_C8)
    assert ident.inverse() == ident
    t = T_VAR
    d = Matrix.from_rows([[1, 0, 0], [0, t, 0], [0, 0, t]], FIELD_TRAT)
    dinv = d.inverse()
    assert dinv.entries[1 * dinv.cols + 1] == 1 / t and dinv.entries[2 * dinv.cols + 2] == 1 / t
    assert matmul(d, dinv) == Matrix.identity(3, FIELD_TRAT)
    with pytest.raises(Singular):
        M([[1, 2, 3], [2, 4, 6], [0, 0, 1]]).inverse()


def test_determinant_examples():
    t = T_VAR
    d = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, t]], FIELD_TRAT)
    assert d.determinant() == t
    assert M([[0, 1], [1, 0]]).determinant() == Cyclo8(-1)


def test_grading_determinant_on_catalog(catalog):
    # det of the involution matrix is (-1)^(n - i) on every entry
    for e in catalog.entries.values():
        det = Matrix.from_rows(e.sc.gamma, e.sc.field).determinant()
        assert det == (-1) ** (e.n - e.component)


def test_random_inverse_properties():
    rng = random.Random(9)
    done = 0
    while done < 10:
        rows = [[Cyclo8(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(3)] for _ in range(3)]
        m = M(rows)
        if m.determinant().is_zero():
            continue
        inv = m.inverse()
        assert inv.inverse() == m
        assert m.determinant() * inv.determinant() == Cyclo8(1)
        done += 1


def test_rank_permutation_invariance():
    rng = random.Random(11)
    rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
    m = M(rows)
    r = m.rank()
    perm = list(range(4))
    rng.shuffle(perm)
    assert M([rows[p] for p in perm]).rank() == r
    assert M([[rows[i][p] for p in perm] for i in range(4)]).rank() == r


def _reference_rank(m):
    """Gauss-Jordan rank: every pivot row normalised, its column cleared above
    and below, no row dropped.  The reference the forward-only rank and the
    rank by evaluation over Q(z)(l) are checked against."""
    rows = m.to_lists()
    pr = 0
    for pc in range(m.cols):
        pivot = next((r for r in range(pr, len(rows)) if not rows[r][pc].is_zero()), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        inv = 1 / rows[pr][pc]
        rows[pr] = [inv * e for e in rows[pr]]
        for r in range(len(rows)):
            f = rows[r][pc]
            if r != pr and not f.is_zero():
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
        pr += 1
        if pr == len(rows):
            break
    return pr


def _leibniz_determinant(m):
    n = m.rows
    det = m.field.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = m.field.one
        for r in range(n):
            term = term * m.entries[r * m.cols + perm[r]]
        det = det - term if inversions % 2 else det + term
    return det


def test_rank_matches_reference_on_catalog_derivation_systems(catalog):
    for e in catalog.entries.values():
        for graded in (True, False):
            m = Matrix.from_rows(derivation_system(e.sc, graded), e.sc.field)
            assert m.rank() == _reference_rank(m), (e.label, graded)


L = LAMBDA


@contextmanager
def _rank_branches():
    """Counts the ranks taken on the integer image ("rank", one `_int_rank`
    each) and those taken by field elimination ("forward", one `_forward` each)."""
    ran = Counter()
    real_rank, real_forward = linalg._int_rank, linalg._forward

    def rank(*args):
        ran["rank"] += 1
        return real_rank(*args)

    def forward(*args):
        ran["forward"] += 1
        return real_forward(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_int_rank", rank)
        mp.setattr(linalg, "_forward", forward)
        yield ran


def _has_z(rows):
    """Some entry has a coefficient with a z-part, in its numerator or denominator."""
    return any(c.c[1:] != (0, 0, 0) for row in rows for x in row
               for p in (LambdaRat.coerce(x).num, LambdaRat.coerce(x).den) for c in p)


def _rank_on_its_branch(rows, field=FIELD_LRAT):
    """The rank of rows, checked to have run `_forward` exactly when an
    entry has a z-part, and `_int_rank` once otherwise."""
    m = Matrix.from_rows(rows, field)
    with _rank_branches() as ran:
        rank = m.rank()
    assert ran == (Counter(forward=1) if _has_z(m.to_lists()) else Counter(rank=1)), ran
    return m, rank


@pytest.mark.parametrize("rows, rank", [
    ([[L, 0], [0, L - 1]], 2),  # rank 1 at l = 0 and l = 1
    ([[L * (L - 1) * (L - 2), 1], [0, 0]], 1),
    ([[L * (L - 1) * (L - 2)]], 1),  # rank 0 at l = 0, 1, 2
    ([[L * (L - 1), 0, 0], [0, L - 2, 0], [0, 0, L * L - 5 * L + 6]], 3),
    ([[1 / (L - 1), 1 / L], [1, 1]], 2),  # denominators that vanish at l = 0 and l = 1
    ([[L / (L + 1), 1], [L * (L - 1), L * L - 1]], 1),  # second row is l^2 - 1 times the first
    ([[0, 0], [0, 0]], 0),
    # a z-part is ranked by _forward
    ([[L, ZETA], [ZETA * L, ZETA * ZETA]], 1),  # second row is z times the first
    ([[L - ZETA, 0], [0, L * (L - 1)]], 2),
    ([[1 / (L + ZETA), 1], [1, L + ZETA]], 1),
    ([[L / 3, Cyclo8(1) / 2], [L * L / 5, L / 7]], 2),  # rational, with denominators in Q
])
def test_rank_over_lambda_pinned(rows, rank):
    m, got = _rank_on_its_branch(rows)
    assert got == rank == _reference_rank(m)


_C = 1000
# det(A0 + l A1) for A0, A1 in {-1, 0, 1}^(3x3) vanishes at l = 0 and at
# l = 5 = (d+1)^(k-1) c^k + 1, the point the root bound gives without its k!
_K_ROOT = [[1 - L, -1 - L, 0], [-1 - L, 1, -L], [1 - L, 1 - L, -1]]


@pytest.mark.parametrize("rows, rank", [
    ([[L - _C, _C], [_C, L - _C]], 2),  # det (l - c)^2 - c^2 = l (l - 2c)
    ([[L - _C * _C]], 1),  # zero at l = c^2, the largest coefficient
    ([[L - _C * _C, 0], [0, L - _C * _C + 1]], 2),
    ([[L - _C * _C, 1], [L * (L - _C * _C), L]], 1),  # second row is l times the first
    (_K_ROOT, 3),
    (_K_ROOT + [[x + y for x, y in zip(_K_ROOT[0], _K_ROOT[1])]], 3),
    ([[2 * L - 1, 3 * L + 1 - 6 * _C], [1 / (L - _C), 1 / (L - 2 * _C)]], 2),  # denominators vanish at c, 2c
    # z-parts, by _forward
    ([[ZETA * (L - _C * _C)]], 1),
    ([[ZETA * (L - _C), ZETA * _C], [_C, L - _C]], 2),  # det z l (l - 2c)
    ([[(1 + ZETA) * x for x in row] for row in _K_ROOT], 3),
    ([[L - _C * _C, ZETA], [ZETA * (L - _C * _C), ZETA * ZETA]], 1),  # second row is z times the first
])
def test_rank_with_roots_at_large_integers_pinned(rows, rank):
    m, got = _rank_on_its_branch(rows)
    assert got == rank == _reference_rank(m)


_FACTORS = (L, L - 1, L - 2, L + ZETA, L * L + 1)
_RATIONAL_FACTORS = (L, L - 1, L - 2, 2 * L + 3, L * L + 1)


@st.composite
def _lrat_entries(draw, rational=False):
    """Entries of l-degree up to 2 with denominators; with rational=True no
    coefficient has a z-part, so a rank takes the integer image."""
    if draw(st.integers(0, 4)) == 0:
        return LambdaRat.coerce(0)
    if rational:
        factors = _RATIONAL_FACTORS
        x = LambdaRat.coerce(Cyclo8(draw(st.integers(-3, 3)) or 1) / draw(st.integers(1, 4)))
    else:
        factors = _FACTORS
        x = LambdaRat.coerce(Cyclo8(draw(st.integers(-3, 3)) or 1, draw(st.integers(-1, 1))))
    for f in draw(st.lists(st.sampled_from(factors), max_size=2)):
        x = x * f
    for f in draw(st.lists(st.sampled_from(factors), max_size=1)):
        x = x / f
    return x


@st.composite
def _planted_rank_matrices(draw):
    """B * C with C of k rows, so rank at most k; then zero rows and copies
    of rows are mixed in.  Entries have l-degree up to 2 and denominators;
    in about half the matrices no coefficient has a z-part."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    entries = _lrat_entries(rational=draw(st.booleans()))
    b = [[draw(entries) for _ in range(k)] for _ in range(m)]
    c = [[draw(entries) for _ in range(n)] for _ in range(k)]
    rows = [[sum((b[i][j] * c[j][col] for j in range(k)), LambdaRat.coerce(0)) for col in range(n)]
            for i in range(m)]
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 2)))]
    rows += [[LambdaRat.coerce(0)] * n for _ in range(draw(st.integers(0, 2)))]
    return k, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_rank_matrices())
def _planted_rank_matches_reference(planted):
    k, rows = planted
    m, rank = _rank_on_its_branch(rows)
    assert rank == _reference_rank(m)
    assert rank <= k


def test_rank_over_lambda_matches_reference():
    with _rank_branches() as ran:
        _planted_rank_matches_reference()
    assert ran["forward"] >= 10 and ran["rank"] >= 10, ran


def test_residual_rank_reads_the_pivot_columns_of_forward():
    # after _forward, the constant pivot rows keep stale nonzero entries left
    # of their pivots; a rank that re-scanned a pivot row for its first
    # nonzero entry would take column 0 for all three and miss the rank
    const = [[Cyclo8(x) for x in row] for row in ([1, 1, 0, 0], [1, 0, 0, -1], [1, 0, 0, 0])]
    pivot_cols = _forward(const, 4, [])
    assert pivot_cols == [0, 1, 3]
    assert not const[1][0].is_zero() and not const[2][0].is_zero()
    m = Matrix.from_rows([[1, 1, 0, 0], [1, 0, 0, -1], [1, 0, 0, 0], [0, 0, 0, L]], FIELD_LRAT)
    assert m.rank() == 3 == _reference_rank(m)


@pytest.mark.parametrize("rows, rank", [
    # all rows constant in l (d = 0)
    ([[1, 2, 0], [2, 4, 0], [0, ZETA, 1]], 2),
    ([[1, ZETA], [ZETA, 1]], 2),
    # constant only once denominators are cleared
    ([[1 / (L + 1), 2 / (L + 1)], [1, 2], [L, 1]], 2),
    # every row moving
    ([[L, L * L], [L * L, L ** 3]], 1),
    ([[L, 1], [1, L]], 2),
    ([[L * L - 1, L - 1], [L + 1, 1]], 1),
    # moving rows of l-degree above 1, with denominators, over constant pivots
    ([[1, 1, 0, 0], [0, 0, 1, ZETA], [L * L, L, L ** 3 / (L - 2), 1 / (L + 1)],
      [L, L, 0, L * L / (L - 1)]], 4),
    ([[1, 0, 1], [0, 1, 1], [L * L / (L + 1), L ** 3, L * L / (L + 1) + L ** 3]], 2),
    ([[1, 0, 0], [L * L, (L - 1) / (L * L + 1), 0], [L ** 3, 0, (L - 1) / (L * L + 1)]], 3),
    # rational constant rows with denominators in Q, and moving rows whose
    # reduction grows their integer coefficients
    ([[Cyclo8(1) / 2, Cyclo8(1) / 3, 0, 1], [Cyclo8(2) / 3, 0, Cyclo8(1) / 5, 0],
      [L / 7, L * L / 2, L / 3, L / 5], [L * L / 3, 0, L / 6, 1 / (L + 1)]], 4),
    ([[3, 6, 9], [2, 4, 7], [L * 5, L * 10, L * 16]], 2),  # third row is l times the sum of the others
    ([[2, 4], [L / 6, L / 3]], 1),
])
def test_residual_rank_pinned(rows, rank):
    m, got = _rank_on_its_branch(rows)
    assert got == rank == _reference_rank(m)


_CONSTANTS = (0, 1, -1, 2, ZETA, 1 - ZETA)
_RATIONAL_CONSTANTS = (0, 1, -1, 2, Cyclo8(1) / 3, Cyclo8(-5) / 2)


@st.composite
def _planted_rank_matrices_with_constant_rows(draw):
    """B * C of rank at most k, where the first kc rows of C are constant in
    l and some rows of B combine only those with constant coefficients, so
    a share of the product's rows is constant; then zero rows and copies.
    In about half the matrices no coefficient has a z-part."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    kc = draw(st.integers(1, k))
    rational = draw(st.booleans())
    constants = _RATIONAL_CONSTANTS if rational else _CONSTANTS
    entries = _lrat_entries(rational=rational)
    const = lambda: LambdaRat.coerce(draw(st.sampled_from(constants)))
    c = [[const() for _ in range(n)] for _ in range(kc)]
    c += [[draw(entries) for _ in range(n)] for _ in range(k - kc)]
    b = [[const() if j < kc else LambdaRat.coerce(0) for j in range(k)]
         for _ in range(draw(st.integers(1, 3)))]
    b += [[draw(entries) for _ in range(k)] for _ in range(draw(st.integers(0, 3)))]
    rows = [[sum((bi[j] * c[j][col] for j in range(k)), LambdaRat.coerce(0)) for col in range(n)]
            for bi in b]
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 2)))]
    rows += [[LambdaRat.coerce(0)] * n for _ in range(draw(st.integers(0, 1)))]
    return k, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_rank_matrices_with_constant_rows())
def _residual_rank_matches_reference(planted):
    k, rows = planted
    m, rank = _rank_on_its_branch(rows)
    assert rank == _reference_rank(m)
    assert rank <= k


def test_residual_rank_with_constant_rows_matches_reference():
    with _rank_branches() as ran:
        _residual_rank_matches_reference()
    assert ran["forward"] >= 10 and ran["rank"] >= 10, ran


Z = ZETA
_R1, _R2 = [1 - Z ** 3, Z + Z ** 3, 0, 2], [Z, 0, Cyclo8(1) / 2, 0]


@pytest.mark.parametrize("rows, rank", [
    ([[1, Z], [Z, Z * Z]], 1),  # second row is z times the first
    ([[1, Z], [Z, 1]], 2),  # determinant 1 - z^2
    ([[Z, Z * Z, Z ** 3], [1, Z, Z * Z], [0, 1, Z]], 2),
    ([[1 + Z, 0, Z ** 3], [0, Z, 1], [Z * Z, 1, 0]], 3),
    ([[Z / 2, Cyclo8(1) / 3], [Z * Z / 4, Z / 6], [0, 0]], 1),  # denominators in Q
    ([_R1, _R2, [Z * a + b for a, b in zip(_R1, _R2)]], 2),  # third row is z*first + second
    ([[1, 2], [2, 4], [0, 0]], 1),  # no z-part: the flat integer image
])
def test_rank_over_qz_pinned(rows, rank):
    m, got = _rank_on_its_branch(rows, FIELD_C8)
    assert got == rank == _reference_rank(m)


def _qz_entries():
    """Q(z) scalars with z-parts and small denominators, or zero."""
    coeff = st.integers(-2, 2)
    return st.one_of(st.just(Cyclo8(0)), st.builds(lambda a, b, c, d, den: Cyclo8(a, b, c, d) / den,
                                                   coeff, coeff, coeff, coeff, st.integers(1, 3)))


@st.composite
def _planted_rank_qz_matrices(draw):
    """B * C over Q(z) with C of k rows, so rank at most k; then zero rows
    and copies of rows are mixed in."""
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    b = [[draw(_qz_entries()) for _ in range(k)] for _ in range(m)]
    c = [[draw(_qz_entries()) for _ in range(n)] for _ in range(k)]
    rows = [[sum((b[i][j] * c[j][col] for j in range(k)), Cyclo8(0)) for col in range(n)] for i in range(m)]
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 2)))]
    rows += [[Cyclo8(0)] * n for _ in range(draw(st.integers(0, 1)))]
    return k, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_rank_qz_matrices())
def _planted_qz_rank_matches_reference(planted):
    k, rows = planted
    m, rank = _rank_on_its_branch(rows, FIELD_C8)
    assert rank == _reference_rank(m)
    assert rank <= k


def test_rank_over_qz_with_z_parts_matches_reference():
    with _rank_branches() as ran:
        _planted_qz_rank_matches_reference()
    assert ran["forward"] >= 30, ran


def test_rank_over_q_z_l_t_is_a_type_error():
    t = T_VAR
    with pytest.raises(TypeError, match=r"Q\(z\)\(l\)\(t\)"):
        Matrix.from_rows([[1, t], [t, 1]], FIELD_TRAT).rank()
    # no rows, and all-zero rows, have rank 0 over the fields that rank
    for field in (FIELD_C8, FIELD_LRAT):
        assert Matrix(0, 3, [], field).rank() == 0
        assert Matrix(2, 3, [0] * 6, field).rank() == 0
        assert Matrix(2, 0, [], field).rank() == 0


def test_rank_matches_reference_on_transported_family_systems(catalog):
    rng = random.Random(17)
    for j in range(3):
        sc = catalog.entry(f"(18;l|{j})").sc
        for _ in range(2):
            moved = transport(random_group_element(rng, 4, sc.field), sc)
            for graded in (True, False):
                m = Matrix.from_rows(derivation_system(moved, graded), moved.field)
                assert m.rank() == _reference_rank(m), (j, graded)


def _stabilizer_rank_calls(point, graded):
    """stabilizer_dim(point, graded) and the number of `Matrix.rank` calls it made."""
    calls = []
    real = Matrix.rank
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "rank", lambda self: calls.append(self) or real(self))
        return stabilizer_dim(point, graded), len(calls)


def _z_group_element(rng):
    """A member of the basis-change group over Q(z) (unit fixed) whose entries
    off the first column are a + b z, a in -2..2 and b in -1..1."""
    while True:
        g = Matrix.from_rows([[Cyclo8(int(r == 0)) if c == 0 else Cyclo8(rng.randint(-2, 2), rng.randint(-1, 1))
                               for c in range(4)] for r in range(4)], FIELD_C8)
        if not g.determinant().is_zero():
            return g


def test_stabilizer_dim_on_the_integer_image_matches_the_full_reference_rank(catalog):
    # family points moved by g over Z, over Q, with an l-entry (all three on
    # the integer image, no Matrix.rank), with a z-part and with a denominator
    # in l (over Q(z)(l)); then the 58 fixed entries, each moved by two g with
    # z-parts (seed 5, over Q(z), no integer image); n^2 minus the
    # Gauss-Jordan rank of the full system is the reference
    rng = random.Random(23)
    points = []
    for j in range(3):
        sc = catalog.entry(f"(18;l|{j})").sc
        rational = Matrix.from_rows([[Cyclo8(int(r == c)) if c == 0 or r == c else Cyclo8(rng.randint(-2, 2)) / 3
                                      for c in range(4)] for r in range(4)], FIELD_LRAT)
        e1 = [1, 0, 0, 0]
        cases = [(random_group_element(rng, 4, FIELD_LRAT), True), (rational, True),
                 (Matrix.from_rows([e1, [0, 1, L, 0], [0, 0, 1, 0], [0, 2 - L, 0, 1]], FIELD_LRAT), True),
                 (Matrix.from_rows([e1, [0, 1, 0, 0], [0, 1, 1, ZETA], [0, 0, 0, 1]], FIELD_LRAT), False),
                 (Matrix.from_rows([e1, [0, 1, 0, 1 / (L - 2)], [0, 1, 1, 0], [0, 0, 0, 1]], FIELD_LRAT), False)]
        points += [(f"(18;l|{j})", transport(g, sc), on_image) for g, on_image in cases]
    rng = random.Random(5)
    points += [(e.label, transport(_z_group_element(rng), e.sc), False)
               for e in catalog.entries.values() if not e.parametric for _ in range(2)]
    assert len(points) == 15 + 116
    for label, moved, on_image in points:
        for graded in (True, False):
            full = Matrix.from_rows(derivation_system(moved, graded), moved.field)
            dim, ranks = _stabilizer_rank_calls(moved, graded)
            assert dim == 16 - _reference_rank(full), (label, graded)
            assert ranks == (0 if on_image else 1), (label, graded)


def test_rank_agrees_with_sympy(catalog):
    # a few systems of tools/oracle_rank.py, which checks all 122, and two of
    # its samples with z-parts over each field, which Matrix.rank takes by _forward
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("oracle_rank", TOOLS / "oracle_rank.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    for label, graded in (("(13|1)", True), ("(9|0)", True), ("(16|1)", False), ("(18;l|2)", True)):
        sc = catalog.entry(label).sc
        rows = derivation_system(sc, graded)
        assert Matrix.from_rows(rows, sc.field).rank() == oracle.sympy_rank(rows, sc.field), (label, graded)
    samples = [s for s in oracle.z_samples() if s[0].endswith((" sample 0", " sample 1"))]
    assert [field for _, _, field in samples] == [FIELD_C8, FIELD_C8, FIELD_LRAT, FIELD_LRAT]
    for name, rows, field in samples:
        _, rank = _rank_on_its_branch(rows, field)
        assert rank == oracle.sympy_rank(rows, field), name


def test_determinant_and_inverse_of_certificate_curves():
    curves = [c.curve for name in ("spec_dim3", "spec_dim2", "family_limits") for c in load_cert_file(name, 4)]
    assert len(curves) == 43
    for g in curves:
        assert g.determinant() == _leibniz_determinant(g)
        assert matmul(g, g.inverse()) == Matrix.identity(g.rows, FIELD_TRAT)


def test_determinant_matches_leibniz_on_random_matrices():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[Cyclo8(rng.randint(-2, 2), rng.randint(-1, 1)) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(n)]
        m = M(rows)
        assert m.determinant() == _leibniz_determinant(m)


# --- the adjugate, by cofactors: the inverse rule of transport ---

def _assert_adjugate(m):
    """adj(m) m = m adj(m) = det(m) I, with det(m) as Leibniz gives it."""
    adj, det = adjugate(m.to_lists(), m.field.zero, m.field.one)
    assert det == _leibniz_determinant(m) == m.determinant()
    a = Matrix.from_rows(adj, m.field)
    scaled = Matrix.from_rows([[det if r == c else 0 for c in range(m.rows)] for r in range(m.rows)], m.field)
    assert matmul(a, m) == scaled == matmul(m, a)
    return a, det


def test_adjugate_of_certificate_curves(catalog):
    # the 43 shipped curves, and the composed curves of those with a pre-change
    certs = [c for name in ("spec_dim3", "spec_dim2", "family_limits") for c in load_cert_file(name, 4)]
    assert len(certs) == 43
    for cert in certs:
        _assert_adjugate(cert.curve)
        if cert.pre_change is not None:
            _assert_adjugate(matmul(matrix_over_trat(cert.pre_change, cert.lambda_sub), cert.curve))


def test_adjugate_on_random_matrices():
    # dense and sparse Q(z) matrices of size 1..4, singular ones included;
    # adj / det is the reference inverse, and ints give the same adjugate
    rng = random.Random(12)
    singular = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        m = M(_degenerate_rows(rng, n, n)[:n]) if rng.random() < 0.3 else M(
            [[_q_entry(rng) for _ in range(n)] for _ in range(n)])
        a, det = _assert_adjugate(m)
        if det:
            assert _same([x / det for x in a.entries], _reference_inverse(m).entries)
        else:
            singular += 1
        ints = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        adj, det = adjugate(ints)
        assert (adj, det) == tuple(adjugate(M(ints).to_lists(), C8_ZERO, C8_ONE))
        assert all(type(x) is int for row in adj for x in row) and type(det) is int
    assert singular >= 10


# --- the one elimination kernel against the former Gauss-Jordan _echelon ---

def _reference_echelon(m, cols):
    """Gauss-Jordan on the list of row lists m, in place: each pivot row is
    normalised and its column cleared above and below.  The former
    `Matrix._echelon`, kept as the reference for kernel, solve and inverse."""
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = next((r for r in range(pr, len(m)) if not m[r][pc].is_zero()), None)
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


def _reference_kernel_basis(mat):
    m = mat.to_lists()
    pivots = _reference_echelon(m, mat.cols)
    z, one = mat.field.zero, mat.field.one
    basis = []
    for f in (c for c in range(mat.cols) if c not in pivots):
        v = [z] * mat.cols
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][f]
        basis.append(tuple(v))
    return basis


def _reference_inverse(mat):
    n = mat.rows
    z, one = mat.field.zero, mat.field.one
    m = [list(mat.row(r)) + [one if c == r else z for c in range(n)] for r in range(n)]
    if _reference_echelon(m, 2 * n) != list(range(n)):
        raise Singular("matrix is singular")
    return Matrix(n, n, [e for row in m for e in row[n:]], mat.field)


def _reference_solve(mat, rhs):
    c = mat.cols
    m = [list(mat.row(r)) + [mat.field.lift(rhs[r])] for r in range(mat.rows)]
    pivots = _reference_echelon(m, c + 1)
    if c in pivots:
        return None
    x = [mat.field.zero] * c
    for r, pc in enumerate(pivots):
        x[pc] = m[r][c]
    return tuple(x)


def _same(a, b):
    """Equal values with equal printed forms, entry by entry."""
    if a is None or b is None:
        return a is b
    a, b = list(a), list(b)
    return len(a) == len(b) and all(x == y and str(x) == str(y) for x, y in zip(a, b))


def _assert_kernel_matches(mat):
    got, ref = mat.kernel_basis(), _reference_kernel_basis(mat)
    assert len(got) == len(ref) and all(_same(v, w) for v, w in zip(got, ref))


def _assert_inverse_matches(mat):
    try:
        ref = _reference_inverse(mat)
    except Singular:
        with pytest.raises(Singular):
            mat.inverse()
        return
    assert _same(mat.inverse().entries, ref.entries)


def _assert_solve_matches(mat, rhs):
    got = mat.solve(rhs)
    assert _same(got, _reference_solve(mat, rhs))
    return got


def _q_entry(rng):
    if rng.random() < 0.35:
        return Cyclo8(0)
    return Cyclo8(rng.randint(-3, 3), rng.randint(-1, 1), 0, rng.randint(-1, 1)) / rng.randint(1, 3)


def _degenerate_rows(rng, rows, cols):
    """Random Q(z) rows with zero rows, copies and combinations of other rows mixed in."""
    out = [[_q_entry(rng) for _ in range(cols)] for _ in range(rows)]
    for _ in range(rng.randint(0, 2)):
        out.append([Cyclo8(0)] * cols)
    for _ in range(rng.randint(0, 2)):
        out.append(list(rng.choice(out)))
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(out), rng.choice(out)
        f = _q_entry(rng)
        out.append([x + f * y for x, y in zip(a, b)])
    rng.shuffle(out)
    return out


def test_one_kernel_matches_reference_on_random_matrices():
    rng = random.Random(23)
    inconsistent = singular = 0
    for _ in range(120):
        rows = _degenerate_rows(rng, rng.randint(1, 4), rng.randint(1, 5))
        mat = M(rows)
        _assert_kernel_matches(mat)
        rhs = [_q_entry(rng) for _ in range(mat.rows)]
        inconsistent += _assert_solve_matches(mat, rhs) is None
        # a right-hand side in the column space is always consistent
        x = [_q_entry(rng) for _ in range(mat.cols)]
        assert _assert_solve_matches(mat, _apply(mat, x)) is not None
        n = rng.randint(1, 4)
        square = M(_degenerate_rows(rng, n, n)[:n]) if rng.random() < 0.5 else M(
            [[_q_entry(rng) for _ in range(n)] for _ in range(n)])
        singular += square.determinant().is_zero()
        _assert_inverse_matches(square)
    assert inconsistent > 10 and singular > 10


def test_one_kernel_pinned_cases():
    # inconsistent: the rhs is not a combination of the columns
    mat = M([[1, 2], [2, 4]])
    assert mat.solve([1, 1]) is None is _reference_solve(mat, [1, 1])
    assert _same(mat.solve([1, 2]), _reference_solve(mat, [1, 2]))
    with pytest.raises(Singular):
        mat.inverse()
    # no rows at all, and all-zero rows
    empty = Matrix(0, 3, [], FIELD_C8)
    assert empty.kernel_basis() == _reference_kernel_basis(empty)
    zero = M([[0, 0, 0], [0, 0, 0]])
    assert zero.kernel_basis() == _reference_kernel_basis(zero)
    assert _same(zero.solve([0, 0]), _reference_solve(zero, [0, 0]))
    # stale entries: _forward leaves nonzero entries left of the later
    # pivots here, and the back pass must not read them
    mat = M([[1, 1, 0, 0], [1, 0, 0, -1], [1, 0, 0, 0]])
    _assert_kernel_matches(mat)
    _assert_solve_matches(mat, [1, 2, 3])


def test_one_kernel_matches_reference_on_catalog_derivation_systems(catalog):
    rng = random.Random(29)
    for e in catalog.entries.values():
        for graded in (True, False):
            mat = Matrix.from_rows(derivation_system(e.sc, graded), e.sc.field)
            _assert_kernel_matches(mat)
            rhs = [e.sc.field.lift(rng.randint(-2, 2)) for _ in range(mat.rows)]
            assert _assert_solve_matches(mat, rhs) is None  # 80 random equations in 16 unknowns
            x = [e.sc.field.lift(rng.randint(-2, 2)) for _ in range(mat.cols)]
            assert _assert_solve_matches(mat, _apply(mat, x)) is not None


def test_one_kernel_matches_reference_on_certificate_curves():
    curves = [c.curve for name in ("spec_dim3", "spec_dim2", "family_limits") for c in load_cert_file(name, 4)]
    assert len(curves) == 43
    for g in curves:
        _assert_inverse_matches(g)
        _assert_kernel_matches(g)
        rhs = [T_VAR ** k + k for k in range(g.rows)]
        _assert_solve_matches(g, rhs)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_planted_rank_matrices())
def test_one_kernel_matches_reference_over_lambda(planted):
    _, rows = planted
    mat = Matrix.from_rows(rows, FIELD_LRAT)
    _assert_kernel_matches(mat)
    _assert_solve_matches(mat, [L ** r - r for r in range(mat.rows)])
    if mat.rows <= mat.cols:
        _assert_inverse_matches(Matrix.from_rows([row[:mat.rows] for row in rows], FIELD_LRAT))
