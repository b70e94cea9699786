import importlib.util
import random
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdegen.certs import load_cert_file
from superdegen.cyclo import ZETA, Cyclo8
from superdegen.invariants import derivation_system
from superdegen.linalg import FIELD_C8, FIELD_LRAT, FIELD_TRAT, Matrix, Singular, _forward
from superdegen.scalars import LAMBDA, LambdaRat
from superdegen.structure import random_group_element, transport
from superdegen.tpoly import T_VAR


TOOLS = Path(__file__).resolve().parent.parent / "tools"


def M(rows):
    return Matrix.from_rows(rows, FIELD_C8)


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
            assert all(x.is_zero() for x in m.apply(v))
        assert m.rank() + len(m.kernel_basis()) == m.cols


def test_inverse_examples():
    ident = Matrix.identity(3, FIELD_C8)
    assert ident.inverse() == ident
    t = T_VAR
    d = Matrix.from_rows([[1, 0, 0], [0, t, 0], [0, 0, t]], FIELD_TRAT)
    dinv = d.inverse()
    assert dinv.at(1, 1) == 1 / t and dinv.at(2, 2) == 1 / t
    assert d * dinv == Matrix.identity(3, FIELD_TRAT)
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
        det = e.sc.gamma_matrix().determinant()
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
            term = term * m.at(r, perm[r])
        det = det - term if inversions % 2 else det + term
    return det


def test_rank_matches_reference_on_catalog_derivation_systems(catalog):
    for e in catalog.entries.values():
        for graded in (True, False):
            m = Matrix.from_rows(derivation_system(e.sc, graded), e.sc.field)
            assert m.rank() == _reference_rank(m), (e.label, graded)


L = LAMBDA


@pytest.mark.parametrize("rows, rank", [
    ([[L, 0], [0, L - 1]], 2),  # rank 1 at l = 0 and l = 1
    ([[L * (L - 1) * (L - 2), 1], [0, 0]], 1),
    ([[L * (L - 1) * (L - 2)]], 1),  # rank 0 at l = 0, 1, 2
    ([[L * (L - 1), 0, 0], [0, L - 2, 0], [0, 0, L * L - 5 * L + 6]], 3),
    ([[1 / (L - 1), 1 / L], [1, 1]], 2),  # denominators that vanish at evaluation points
    ([[L / (L + 1), 1], [L * (L - 1), L * L - 1]], 1),  # second row is l^2 - 1 times the first
    ([[0, 0], [0, 0]], 0),
])
def test_rank_over_lambda_pinned(rows, rank):
    m = Matrix.from_rows(rows, FIELD_LRAT)
    assert m.rank() == rank == _reference_rank(m)


_FACTORS = (L, L - 1, L - 2, L + ZETA, L * L + 1)


@st.composite
def _lrat_entries(draw):
    if draw(st.integers(0, 4)) == 0:
        return LambdaRat.coerce(0)
    x = LambdaRat.coerce(Cyclo8(draw(st.integers(-3, 3)) or 1, draw(st.integers(-1, 1))))
    for f in draw(st.lists(st.sampled_from(_FACTORS), max_size=2)):
        x = x * f
    for f in draw(st.lists(st.sampled_from(_FACTORS), max_size=1)):
        x = x / f
    return x


@st.composite
def _planted_rank_matrices(draw):
    """B * C with C of k rows, so rank at most k; then zero rows and copies
    of rows are mixed in.  Entries have l-degree up to 2 and denominators."""
    m, k, n = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(1, 4))
    b = [[draw(_lrat_entries()) for _ in range(k)] for _ in range(m)]
    c = [[draw(_lrat_entries()) for _ in range(n)] for _ in range(k)]
    rows = [[sum((b[i][j] * c[j][col] for j in range(k)), LambdaRat.coerce(0)) for col in range(n)]
            for i in range(m)]
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 2)))]
    rows += [[LambdaRat.coerce(0)] * n for _ in range(draw(st.integers(0, 2)))]
    return k, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_rank_matrices())
def test_rank_over_lambda_matches_reference(planted):
    k, rows = planted
    m = Matrix.from_rows(rows, FIELD_LRAT)
    rank = m.rank()
    assert rank == _reference_rank(m)
    assert rank <= k


def test_residual_rank_reads_the_pivot_columns_of_forward():
    # after _forward, the constant pivot rows keep stale nonzero entries left
    # of their pivots; a rank that re-scanned a pivot row for its first
    # nonzero entry would take column 0 for all three and miss the rank
    const = [[Cyclo8(x) for x in row] for row in ([1, 1, 0, 0], [1, 0, 0, -1], [1, 0, 0, 0])]
    pivot_cols, _ = _forward(const, 4)
    assert pivot_cols == [0, 1, 3]
    assert not const[1][0].is_zero() and not const[2][0].is_zero()
    m = Matrix.from_rows([[1, 1, 0, 0], [1, 0, 0, -1], [1, 0, 0, 0], [0, 0, 0, L]], FIELD_LRAT)
    assert m.rank() == 3 == _reference_rank(m)


@pytest.mark.parametrize("rows, rank", [
    # all rows constant in l: no evaluation at all
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
])
def test_residual_rank_pinned(rows, rank):
    m = Matrix.from_rows(rows, FIELD_LRAT)
    assert m.rank() == rank == _reference_rank(m)


_CONSTANTS = (0, 1, -1, 2, ZETA, 1 - ZETA)


@st.composite
def _planted_rank_matrices_with_constant_rows(draw):
    """B * C of rank at most k, where the first kc rows of C are constant in
    l and some rows of B combine only those with constant coefficients, so
    a share of the product's rows is constant; then zero rows and copies."""
    k, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    kc = draw(st.integers(1, k))
    const = lambda: LambdaRat.coerce(draw(st.sampled_from(_CONSTANTS)))
    c = [[const() for _ in range(n)] for _ in range(kc)]
    c += [[draw(_lrat_entries()) for _ in range(n)] for _ in range(k - kc)]
    b = [[const() if j < kc else LambdaRat.coerce(0) for j in range(k)]
         for _ in range(draw(st.integers(1, 3)))]
    b += [[draw(_lrat_entries()) for _ in range(k)] for _ in range(draw(st.integers(0, 3)))]
    rows = [[sum((bi[j] * c[j][col] for j in range(k)), LambdaRat.coerce(0)) for col in range(n)]
            for bi in b]
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 2)))]
    rows += [[LambdaRat.coerce(0)] * n for _ in range(draw(st.integers(0, 1)))]
    return k, draw(st.permutations(rows))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_planted_rank_matrices_with_constant_rows())
def test_residual_rank_with_constant_rows_matches_reference(planted):
    k, rows = planted
    m = Matrix.from_rows(rows, FIELD_LRAT)
    rank = m.rank()
    assert rank == _reference_rank(m)
    assert rank <= k


def test_rank_matches_reference_on_transported_family_systems(catalog):
    rng = random.Random(17)
    for j in range(3):
        sc = catalog.entry(f"(18;l|{j})").sc
        for _ in range(2):
            moved = transport(random_group_element(rng, 4, sc.field), sc)
            for graded in (True, False):
                m = Matrix.from_rows(derivation_system(moved, graded), moved.field)
                assert m.rank() == _reference_rank(m), (j, graded)


def test_rank_agrees_with_sympy(catalog):
    # a few systems of tools/oracle_rank.py, which checks all 122
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("oracle_rank", TOOLS / "oracle_rank.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    for label, graded in (("(13|1)", True), ("(9|0)", True), ("(16|1)", False), ("(18;l|2)", True)):
        sc = catalog.entry(label).sc
        rows = derivation_system(sc, graded)
        assert Matrix.from_rows(rows, sc.field).rank() == oracle.sympy_rank(rows, sc.field), (label, graded)


def test_determinant_and_inverse_of_certificate_curves():
    curves = [c.curve for name in ("spec_dim3", "spec_dim2", "family_limits") for c in load_cert_file(name)]
    assert len(curves) == 43
    for g in curves:
        assert g.determinant() == _leibniz_determinant(g)
        assert g * g.inverse() == Matrix.identity(g.rows, FIELD_TRAT)


def test_determinant_matches_leibniz_on_random_matrices():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[Cyclo8(rng.randint(-2, 2), rng.randint(-1, 1)) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(n)]
        m = M(rows)
        assert m.determinant() == _leibniz_determinant(m)
