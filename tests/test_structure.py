import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdegen import certs, structure
from superdegen.catalog import FORBIDDEN_LAMBDA
from superdegen.certs import (NOT_VERIFIED, VERIFIED, Outcome, SpecializationCert, _lowest, load_cert_file, scaling_cert,
                              verify_cert)
from superdegen.cyclo import ZETA, Cyclo8
from superdegen.linalg import FIELD_C8, FIELD_LRAT, FIELD_TRAT, Matrix, Singular
from superdegen.scalars import LAMBDA, LambdaRat
from superdegen.structure import (AxiomError, NotAnInvolution, NotInGroup, StructureConstants, axioms_ok,
                                  check_axioms, cn_structure, forget_grading, grading_split,
                                  group_element, moved_numerators, random_group_element, transport,
                                  transport_algebra, validate)
from superdegen.tpoly import ORDER_INF, T_VAR, TRat

from helpers import eval_at_zero, matmul, matrix_over_trat, sc_over_trat


def _with_trivial_grading(alpha, field):
    """The algebra point alpha with the grading whose involution is the identity."""
    n = len(alpha)
    ident = [[field.one if r == c else field.zero for c in range(n)] for r in range(n)]
    return validate(StructureConstants(n, alpha, ident, field))


def test_field_itself_passes():
    # n = 1: alpha = (1), gamma = (1)
    sc = StructureConstants(1, [[[1]]], [[1]], FIELD_C8)
    assert axioms_ok(check_axioms(sc))


def test_catalog_entries_pass_axioms(catalog):
    sc = catalog.get("(10|1)")
    report = check_axioms(sc)
    assert axioms_ok(report)


def test_perturbed_constants_fail_associativity(catalog):
    sc = catalog.get("(1|0)")
    alpha = [[list(row) for row in plane] for plane in sc.alpha]
    alpha[1][1][0] = alpha[1][1][0] + 1  # perturb one product constant
    bad = StructureConstants(4, alpha, sc.gamma, FIELD_C8)
    report = check_axioms(bad)
    assert report[3], "associativity violations expected"
    with pytest.raises(AxiomError):
        validate(bad)


def test_grading_split_examples(catalog):
    assert grading_split(catalog.get("(7|2)")).dim0 == 2
    assert grading_split(catalog.get("(9|3)")).dim0 == 1
    triv = _with_trivial_grading(catalog.get("(1|0)").alpha, FIELD_C8)
    assert grading_split(triv).dim0 == 4


@pytest.mark.parametrize("label", ["(7|2)", "(9|3)", "(18;l|1)"])
def test_grading_split_pins_its_two_messages(catalog, label):
    # a shifted diagonal entry of gamma breaks gamma^2 = 1, and so does
    # sigma(e_1) shifted by an even e_2, which also moves the unit: the square
    # is checked first.  sigma(e_1) shifted by the odd e_4, or -gamma, keeps
    # gamma^2 = 1 and moves the unit
    sc = catalog.get(label)
    even = [(1, 0)] if sc.gamma[1][1] == 1 else []
    for index in [(1, 1)] + even:
        with pytest.raises(NotAnInvolution, match="^gamma squared is not the identity$"):
            grading_split(_perturbed(sc, "gamma", index, Cyclo8(1)))
    for bad in (_perturbed(sc, "gamma", (3, 0), Cyclo8(1)),
                StructureConstants(sc.n, sc.alpha, [[-x for x in row] for row in sc.gamma], sc.field)):
        with pytest.raises(NotAnInvolution, match="^the unit is not even$"):
            grading_split(bad)


def test_grading_split_trace_and_determinant_laws(catalog, benchmark_points):
    # gamma^2 = 1 alone decides the split: on every entry and on one pass of
    # each fuzz workload (over Q(z) and Q(z)(l)) the eigenspaces span, the
    # trace is 2 dim0 - n and the determinant (-1)^(n - dim0)
    points = [catalog.entry(label).sc for label in catalog.labels()]
    points += benchmark_points("fuzz-fixed", 101) + benchmark_points("fuzz-family", 101)
    assert {sc.field for sc in points} == {FIELD_C8, FIELD_LRAT}
    for sc in points:
        split, n = grading_split(sc), sc.n
        assert split.dim0 + len(split.basis1) == n
        assert sum(sc.gamma[r][r] for r in range(1, n)) + sc.gamma[0][0] == 2 * split.dim0 - n
        assert Matrix.from_rows(sc.gamma, sc.field).determinant() == (-1) ** (n - split.dim0)


def test_transport_identity_and_group_guard(catalog):
    sc = catalog.get("(9|2)")
    ident = Matrix.identity(4, FIELD_C8)
    assert transport(ident, sc) == sc
    bad = Matrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], FIELD_C8)
    with pytest.raises(NotInGroup):
        transport(bad, sc)  # first column must stay e_1


def test_transport_reports_the_group_element_errors_in_order(catalog):
    # transport takes det g from the adjugate, on ints or over the field; a
    # bad g gets the messages of group_element, shape and unit column first
    singular = [[1, 0, 0, 0], [0, 1, 2, 0], [0, 2, 4, 0], [0, 0, 0, 1]]
    cases = [(Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], FIELD_C8), "group elements are square"),
             (Matrix.from_rows([[1, 0, 0, 0], [0, 1, 2, 0], [1, 2, 4, 0], [0, 0, 0, 1]], FIELD_C8),
              "first column must be the unit vector e_1"),
             (Matrix.from_rows(singular, FIELD_C8), "matrix is singular"),
             (Matrix.from_rows([[x * (1 + L) for x in row] if r else row for r, row in enumerate(singular)],
                               FIELD_LRAT), "matrix is singular")]
    for label in ("(9|2)", "(18;l|1)"):
        sc = catalog.get(label)
        for g, message in cases:
            if g.field is FIELD_LRAT and sc.field is FIELD_C8:
                continue
            for call in (group_element, lambda g: transport(g, sc), lambda g: transport_algebra(g, sc.alpha, sc.field)):
                with pytest.raises(NotInGroup, match=f"^{message}$"):
                    call(g)


def test_transport_swap_of_odd_vectors(catalog):
    # swapping the two odd basis vectors of (9|2) permutes indices 3 and 4
    sc = catalog.get("(9|2)")
    g = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], FIELD_C8)
    moved = transport(g, sc)
    assert moved.validated
    assert moved == sc  # all radical products vanish, so the swap is invisible


def test_transport_scaling_invisible_on_square_zero(catalog):
    sc = cn_structure(4, 2)
    g = Matrix.from_rows([[1, 0, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 5]], FIELD_C8)
    assert transport(g, sc) == sc


def test_variety_is_stable_under_transport(catalog):
    # 200 random basis changes spread over a handful of entries: the
    # transported constants must satisfy the defining equations every time
    rng = random.Random(77)
    labels = ("(10|1)", "(13|1)", "(7|1)", "(18;l|1)", "(11|3)", "(19|1)", "(1|2)", "(14|2)")
    for k in range(200):
        sc = catalog.get(labels[k % len(labels)])
        g = random_group_element(rng, 4, sc.field)
        moved = transport(g, sc)  # validate() inside raises on any violation
        assert moved.validated


def test_forget_and_embed_round_trip(catalog):
    sc = catalog.get("(13|1)")
    alpha = forget_grading(sc)
    back = _with_trivial_grading(alpha, FIELD_C8)
    assert back.alpha == alpha
    assert grading_split(back).dim0 == 4
    assert Matrix.from_rows(back.gamma, back.field).determinant() == 1


def test_embed_equivariance(catalog):
    # transporting then embedding equals embedding then transporting
    rng = random.Random(5)
    alpha = catalog.get("(10|0)").alpha
    for _ in range(5):
        g = random_group_element(rng, 4)
        left = _with_trivial_grading(transport_algebra(g, alpha, FIELD_C8), FIELD_C8)
        right = transport(g, _with_trivial_grading(alpha, FIELD_C8))
        assert left == right


def test_forget_equivariance(catalog):
    rng = random.Random(6)
    sc = catalog.get("(16|1)")
    for _ in range(5):
        g = random_group_element(rng, 4)
        assert forget_grading(transport(g, sc)) == transport_algebra(g, sc.alpha, FIELD_C8)


def test_forget_family_member_matches_trivially_graded(catalog):
    # the alpha block of (18;l|1) equals that of (18;l|0) in the shared basis
    assert forget_grading(catalog.entry("(18;l|1)").sc) == forget_grading(catalog.entry("(18;l|0)").sc)


def test_cn_structure_examples(catalog):
    assert cn_structure(4, 1) == catalog.get("(9|3)")
    assert grading_split(cn_structure(4, 2)).dim0 == 2
    triv = _with_trivial_grading(cn_structure(4, 4).alpha, FIELD_C8)
    assert cn_structure(4, 4) == triv
    with pytest.raises(ValueError):
        cn_structure(4, 5)


def test_forget_of_closed_orbit_is_square_zero(catalog):
    assert forget_grading(catalog.get("(9|3)")) == forget_grading(cn_structure(4, 4))


# ------------------------------------------------------- oracles for the kernel

def _reference_check_axioms(sc: StructureConstants) -> dict:
    """The dense loops over every index that `check_axioms` replaced, kept as its oracle."""
    n, alpha, gamma = sc.n, sc.alpha, sc.gamma
    z = sc.field.zero
    one = sc.field.one
    report = {k: [] for k in (1, 2, 3, 4, 5, 6)}

    def delta(a, b):
        return one if a == b else z

    for i in range(n):
        for j in range(n):
            if not (alpha[0][i][j] == delta(i, j)):
                report[1].append((i + 1, j + 1))
            if not (alpha[i][0][j] == delta(i, j)):
                report[2].append((i + 1, j + 1))
    for j in range(n):
        if not (gamma[j][0] == delta(j, 0)):
            report[4].append((j + 1,))
    # associativity: (e_i e_j) e_k = e_i (e_j e_k), coefficient of e_m
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = z
                    for l in range(n):
                        a1 = alpha[i][j][l]
                        if not a1.is_zero():
                            lhs = lhs + a1 * alpha[l][k][m]
                        a2 = alpha[j][k][l]
                        if not a2.is_zero():
                            lhs = lhs - alpha[i][l][m] * a2
                    if not lhs.is_zero():
                        report[3].append((i + 1, j + 1, k + 1, m + 1))
    # sigma multiplicative
    for i in range(n):
        for j in range(n):
            for m in range(n):
                acc = z
                for k in range(n):
                    a = alpha[i][j][k]
                    if not a.is_zero():
                        acc = acc + a * gamma[m][k]
                for k in range(n):
                    gk = gamma[k][i]
                    if gk.is_zero():
                        continue
                    for l in range(n):
                        gl = gamma[l][j]
                        if not gl.is_zero():
                            acc = acc - gk * gl * alpha[k][l][m]
                if not acc.is_zero():
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


def _reference_transport(g: Matrix, sc: StructureConstants, field=None) -> StructureConstants:
    """The three hand-written contraction stages `transport` replaced, kept as its oracle."""
    field = field or sc.field
    group_element(g)
    n = sc.n
    try:
        nu = g.inverse()
    except Singular as exc:
        raise NotInGroup(str(exc)) from exc
    z = field.zero
    lam = [[field.lift(g.entries[r * g.cols + c]) for c in range(n)] for r in range(n)]
    # C[i][q][l] = sum_p lam[p][i] * alpha[p][q][l]
    C = [[[z] * n for _ in range(n)] for _ in range(n)]
    for p in range(n):
        for q in range(n):
            for l in range(n):
                a = sc.alpha[p][q][l]
                if a.is_zero():
                    continue
                a = field.lift(a)
                for i in range(n):
                    lpi = lam[p][i]
                    if not lpi.is_zero():
                        C[i][q][l] = C[i][q][l] + lpi * a
    # B[i][j][l] = sum_q lam[q][j] * C[i][q][l]
    B = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for q in range(n):
            Ciq = C[i][q]
            for l in range(n):
                c = Ciq[l]
                if c.is_zero():
                    continue
                for j in range(n):
                    lqj = lam[q][j]
                    if not lqj.is_zero():
                        B[i][j][l] = B[i][j][l] + lqj * c
    alpha = [[[z] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            Bij = B[i][j]
            for k in range(n):
                acc = z
                for l in range(n):
                    nk = nu.entries[k * nu.cols + l]
                    if not (nk.is_zero() or Bij[l].is_zero()):
                        acc = acc + nk * Bij[l]
                alpha[i][j][k] = acc
    gmat = matmul(matmul(nu, Matrix.from_rows(sc.gamma, field)), g)
    return StructureConstants(n, alpha, gmat.to_lists(), field)


def _perturbed(sc, which, index, delta):
    """A copy of sc with delta added to alpha[i][j][k] or gamma[r][c] (0-based)."""
    alpha = [[list(row) for row in plane] for plane in sc.alpha]
    gamma = [list(row) for row in sc.gamma]
    if which == "alpha":
        i, j, k = index
        alpha[i][j][k] = alpha[i][j][k] + delta
    else:
        r, c = index
        gamma[r][c] = gamma[r][c] + delta
    return StructureConstants(sc.n, alpha, gamma, sc.field)


def _assert_reports_agree(sc):
    assert check_axioms(sc) == _reference_check_axioms(sc)


def test_check_axioms_matches_reference_on_catalog(catalog):
    for label in catalog.labels():
        _assert_reports_agree(catalog.entry(label).sc)


def test_transport_matches_reference_on_random_points(catalog):
    # every entry once, the three (18;l|j) families over Q(z)(l) among them
    rng = random.Random(606)
    fields = set()
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        g = random_group_element(rng, 4, sc.field)
        moved = transport(g, sc, revalidate=False)
        assert moved == _reference_transport(g, sc)
        _assert_reports_agree(moved)
        fields.add(sc.field)
    assert fields == {FIELD_C8, FIELD_LRAT}


def test_transport_matches_reference_on_certificate_curves(catalog):
    # the composed curves of the shipped certificates, over Q(z)(l)(t)
    checked = 0
    for name in ("spec_dim3", "spec_dim2", "family_limits"):
        for cert in load_cert_file(name, 4):
            src = catalog.entry(cert.source).sc
            curve = cert.curve
            if cert.pre_change is not None:
                curve = matmul(matrix_over_trat(cert.pre_change, cert.lambda_sub), curve)
            src_t = sc_over_trat(src, cert.lambda_sub)
            moved = transport(curve, src_t, revalidate=False)
            assert moved == _reference_transport(curve, src_t, field=FIELD_TRAT)
            checked += 1
    assert checked == 43


# (label, perturbed block, 0-based index, family that must break); the first
# three break the unit, so check_axioms runs over every index
_PINNED_BREAKS = [
    ("(10|1)", "alpha", (0, 1, 1), 1),
    ("(10|1)", "alpha", (2, 0, 2), 2),
    ("(7|2)", "gamma", (2, 0), 4),
    ("(1|0)", "alpha", (1, 1, 0), 3),
    ("(7|2)", "alpha", (1, 1, 3), 5),
    ("(7|2)", "gamma", (1, 1), 6),
]


@pytest.mark.parametrize("label, which, index, family", _PINNED_BREAKS)
def test_pinned_breaks_match_reference(catalog, label, which, index, family):
    bad = _perturbed(catalog.get(label), which, index, Cyclo8(1))
    report = check_axioms(bad)
    assert report[family]
    assert report == _reference_check_axioms(bad)


# where a perturbation lands: on the unit's products (families 1, 2), on
# sigma(e_1) (family 4), or away from the unit, which keeps families 1, 2
# and 4 and so exercises the triples and pairs check_axioms skips
_PLACES = {
    "left-unit": lambda d: ("alpha", (0, d(0, 3), d(0, 3))),
    "right-unit": lambda d: ("alpha", (d(0, 3), 0, d(0, 3))),
    "sigma-unit": lambda d: ("gamma", (d(0, 3), 0)),
    "product": lambda d: ("alpha", (d(1, 3), d(1, 3), d(0, 3))),
    "involution": lambda d: ("gamma", (d(0, 3), d(1, 3))),
}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_perturbations_match_reference(catalog, data):
    label = data.draw(st.sampled_from(catalog.labels()))
    sc = catalog.entry(label).sc
    if data.draw(st.booleans()):
        sc = transport(random_group_element(random.Random(data.draw(st.integers(0, 99))), 4, sc.field), sc)
    place = data.draw(st.sampled_from(sorted(_PLACES)))
    which, index = _PLACES[place](lambda lo, hi: data.draw(st.integers(lo, hi)))
    delta = Cyclo8(data.draw(st.integers(-2, 2)), data.draw(st.integers(-1, 1)))
    if delta.is_zero():
        delta = Cyclo8(1)
    bad = _perturbed(sc, which, index, delta)
    _assert_reports_agree(bad)
    if place in ("product", "involution"):
        report = check_axioms(bad)
        assert not (report[1] or report[2] or report[4])


def test_multiply_matches_the_dense_formula(catalog):
    rng = random.Random(8)
    for label in ("(1|0)", "(10|1)", "(18;l|2)"):
        sc = catalog.entry(label).sc
        for _ in range(5):
            x = [rng.randint(-2, 2) for _ in range(4)]
            y = [rng.randint(-2, 2) for _ in range(4)]
            dense = [sum((sc.alpha[i][j][k] * (x[i] * y[j]) for i in range(4) for j in range(4)),
                         sc.field.zero) for k in range(4)]
            assert list(sc.multiply(x, y)) == dense


# ------------------------------------------ family 5 against the _along formula

def _reference_family5(sc):
    """Family 5 as the three `_along` tensors the one-pass check replaced:
    E * sigma(e_i e_j) and sigma(e_i) sigma(e_j), compared plane by plane
    on the indices `check_axioms` evaluates."""
    report = check_axioms(sc)
    terms, gamma, _, ge, z = structure._point(sc)
    n = sc.n
    idx = range(0 if report[1] or report[2] or report[4] else 1, n)
    lhs = structure._along(terms, [[ge * x for x in row] for row in gamma], 2)
    rhs = structure._along(structure._along(terms, gamma, 0), gamma, 1)
    return tuple(sorted((i + 1, j + 1, m + 1) for i in idx for j in idx for m in range(n)
                        if lhs[i][j].get(m, z) - rhs[i][j].get(m, z)))


def _assert_family5_agrees(sc):
    assert check_axioms(sc)[5] == _reference_family5(sc)


def test_family5_matches_the_along_formula_on_entries_and_fuzz_points(catalog, benchmark_points):
    # every entry, and one pass of each fuzz workload on seeds 101 and 7:
    # the family points lie on the integer image with E > 1 after an integer g
    points = [catalog.entry(label).sc for label in catalog.labels()]
    for workload in ("fuzz-fixed", "fuzz-family"):
        for seed in (101, 7):
            points += benchmark_points(workload, seed)
    with _paths() as ran:
        for sc in points:
            _assert_family5_agrees(sc)
    assert ran["ints"] >= 2 * 2 * 60 and ran["scalars"] >= 2 * 2 * 116
    assert any(structure._point(sc)[3] != 1 for sc in points if structure._image(sc) is not None)


@pytest.mark.parametrize("place", sorted(_PLACES))
def test_family5_matches_the_along_formula_on_perturbed_points(catalog, place):
    rng = random.Random(1701 + sorted(_PLACES).index(place))
    for label in ("(18;l|0)", "(18;l|2)", "(7|2)", "(10|1)", "(13|1)"):
        sc = catalog.entry(label).sc
        for point in (sc, transport(random_group_element(rng, 4, sc.field), sc, revalidate=False),
                      transport(_rational_group_element(rng, sc.field), sc, revalidate=False)):
            which, index = _PLACES[place](rng.randint)
            for delta in (Cyclo8(1), Cyclo8(-2, 1), _falling(1) if sc.field is FIELD_LRAT else Cyclo8(1, 0, 3)):
                _assert_family5_agrees(_perturbed(point, which, index, delta))


def test_family5_matches_the_along_formula_with_z_parts(catalog):
    # a z-part in g moves the point over its field; the family point then
    # has z-parts in Q(z)(l), the fixed one in Q(z)
    for label in ("(18;l|1)", "(7|2)", "(16|1)"):
        sc = catalog.entry(label).sc
        g = _unipotent([(1, 2, ZETA), (0, 3, 1), (3, 1, 1 - ZETA)], sc.field)
        moved = transport(g, sc, revalidate=False)
        _assert_family5_agrees(moved)
        _assert_family5_agrees(_perturbed(moved, "gamma", (1, 2), ZETA))


# ------------------------- associativity against the loop over the triples

def _reference_family3(sc):
    """Family 3 as the loop over every triple (i, j, k) of the indices
    `check_axioms` evaluates, on the same point (`structure._point`), that
    the one-pass dict replaced: (e_i e_j) e_k - e_i (e_j e_k) per triple."""
    report = check_axioms(sc)
    terms = structure._point(sc)[0]
    n = sc.n
    idx = range(0 if report[1] or report[2] or report[4] else 1, n)
    out = set()
    for i in idx:
        for j in idx:
            for k in idx:
                res = {}
                for l, a in terms[i][j].items():
                    structure._add_scaled(res, a, terms[l][k])
                for l, a in terms[j][k].items():
                    structure._add_scaled(res, -a, terms[i][l])
                out.update((i + 1, j + 1, k + 1, m + 1) for m, v in res.items() if v)
    return tuple(sorted(out))


def _assert_family3_agrees(sc):
    assert check_axioms(sc)[3] == _reference_family3(sc)


def test_associativity_matches_the_triple_loop_on_entries_and_fuzz_points(catalog, benchmark_points):
    # every entry (the fixed ones on their kept image of degree 0), and one
    # pass of each fuzz workload on seeds 101 and 7
    points = [catalog.entry(label).sc for label in catalog.labels()]
    for workload in ("fuzz-fixed", "fuzz-family"):
        for seed in (101, 7):
            points += benchmark_points(workload, seed)
    with _paths() as ran:
        for sc in points:
            _assert_family3_agrees(sc)
    assert ran["ints"] >= 2 * (61 + 2 * 60) and ran["scalars"] >= 2 * 2 * 116


def _on_image(sc):
    """The Q(z) point sc read over Q(z)(l): its image, if any, has degree 0."""
    return StructureConstants(sc.n, sc.alpha, sc.gamma, FIELD_LRAT)


@pytest.mark.parametrize("place", sorted(_PLACES))
def test_associativity_matches_the_triple_loop_on_perturbed_points(catalog, place):
    # perturbed entries, moved and not, over their field and, for the Q(z)
    # ones, on a degree-0 image (D = 2 for the shift by 1/2)
    rng = random.Random(1801 + sorted(_PLACES).index(place))
    with _paths() as ran:
        for label in ("(18;l|0)", "(18;l|2)", "(7|2)", "(10|1)", "(13|1)", "(1|0)"):
            sc = catalog.entry(label).sc
            for point in (sc, transport(random_group_element(rng, 4, sc.field), sc, revalidate=False),
                          transport(_rational_group_element(rng, sc.field), sc, revalidate=False)):
                which, index = _PLACES[place](rng.randint)
                for delta in (Cyclo8(1), Cyclo8(Fraction(1, 2)), Cyclo8(-2, 1),
                              _falling(1) if sc.field is FIELD_LRAT else Cyclo8(1, 0, 3)):
                    bad = _perturbed(point, which, index, delta)
                    _assert_family3_agrees(bad)
                    if bad.field is FIELD_C8:
                        _assert_family3_agrees(_on_image(bad))
                        assert check_axioms(_on_image(bad)) == check_axioms(bad)
    assert ran["ints"] and ran["scalars"]


def _nested_lists(x):
    """x with every tuple and list, nested, made a list."""
    return [_nested_lists(y) for y in x] if isinstance(x, (tuple, list)) else x


def test_every_entry_keeps_the_image_of_its_constants(catalog):
    # the loader reads each entry's image off its literals; read off the
    # constants (a Q(z) entry's as constant polynomials in l) it is the same
    degrees = Counter()
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        assert structure._image(sc) is sc.image
        assert _nested_lists(sc.image) == _nested_lists(structure._image(_on_image(sc))), label
        assert sc.image[0] == sc.image[2] == 1
        degrees[sc.image[4]] += 1
    assert degrees == {0: 58, 1: 3}


# --------------------- the integer image, the adjugate, and their references

L = LAMBDA


@contextmanager
def _paths():
    """Counts the transports taken on the integer image ("image") and over
    the field ("field"), the equation checks run on the image ("ints") and
    over the field ("scalars"), and the certificates whose stage (ii) runs
    on the t-image ("t-ints") and over Q(z)(l)(t) ("t-field")."""
    ran = Counter()
    real_transport, real_point, real_t_image = structure._transport_image, structure._point, certs._t_image

    def transport_spy(g, sc):
        out = real_transport(g, sc)
        ran["field" if out is None else "image"] += 1
        return out

    def point_spy(sc):
        out = real_point(sc)
        ran["ints" if type(out[-1]) is int else "scalars"] += 1
        return out

    def t_image_spy(cert, sc):
        out = real_t_image(cert, sc)
        ran["t-field" if out is None else "t-ints"] += 1
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_transport_image", transport_spy)
        mp.setattr(structure, "_point", point_spy)
        mp.setattr(certs, "_t_image", t_image_spy)
        yield ran


def _assert_same_point(moved, expected):
    """Equal, with every constant of the same type and printed alike."""
    assert moved == expected
    pairs = [(a, b) for p, q in zip(moved.alpha, expected.alpha) for r, s in zip(p, q) for a, b in zip(r, s)]
    pairs += [(a, b) for r, s in zip(moved.gamma, expected.gamma) for a, b in zip(r, s)]
    assert all(type(a) is type(b) and str(a) == str(b) for a, b in pairs)


def _rational_group_element(rng, field):
    """A random group element with entries in Q, denominators up to 3."""
    while True:
        rows = [[Fraction(int(r == 0)) if c == 0 else Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                 for c in range(4)] for r in range(4)]
        m = Matrix.from_rows([[field.lift(Cyclo8(x)) for x in row] for row in rows], field)
        if not m.determinant().is_zero():
            return m


def _unipotent(steps, field=FIELD_LRAT):
    """The product of the elementary matrices I + x * E_rc, (r, c, x) in
    steps, with c >= 1 and r != c: determinant 1, first column e_1."""
    g = Matrix.identity(4, field)
    for r, c, x in steps:
        g = matmul(g, Matrix.from_rows([[1 if a == b else x if (a, b) == (r, c) else 0 for b in range(4)]
                                        for a in range(4)], field))
    return g


def test_every_entry_moves_on_its_path_as_the_reference(catalog):
    # every entry moved by an integral and a rational g: the three families on
    # the integer image, Q(z) points over Q(z); each family point is then
    # checked on ints, each Q(z) point over its field
    rng = random.Random(1201)
    with _paths() as ran:
        for label in catalog.labels():
            sc = catalog.entry(label).sc
            for g in (random_group_element(rng, 4, sc.field), _rational_group_element(rng, sc.field)):
                moved = transport(g, sc, revalidate=False)
                _assert_same_point(moved, _reference_transport(g, sc))
                _assert_reports_agree(moved)
                assert transport_algebra(g, sc.alpha, sc.field) == moved.alpha
    assert ran == {"image": 12, "field": 232, "ints": 6, "scalars": 116}


def test_fuzz_points_move_and_validate_as_the_reference(catalog):
    # the points a fuzz pass makes: an integer g over the entry's field,
    # transport with revalidation, then the bare algebra moved by the same g
    rng = random.Random(1202)
    with _paths() as ran:
        for label in ("(18;l|0)", "(18;l|1)", "(18;l|2)", "(16|1)", "(10|1)", "(13|1)"):
            sc = catalog.entry(label).sc
            for _ in range(4):
                g = random_group_element(rng, 4, sc.field)
                moved = transport(g, sc)
                assert moved.validated
                _assert_same_point(moved, _reference_transport(g, sc))
                assert forget_grading(moved) == transport_algebra(g, sc.alpha, sc.field)
    assert ran == {"image": 24, "field": 24, "ints": 12, "scalars": 12}


def test_z_parts_and_l_dependent_changes_keep_the_field(catalog):
    sc = catalog.get("(18;l|1)")
    with _paths() as ran:
        # a z-part in g: the family point moves over Q(z)(l); the moved point
        # has z-parts, so it is checked, and moved again, over its field
        g = _unipotent([(1, 2, ZETA), (0, 3, 1)])
        moved = transport(g, sc)
        _assert_same_point(moved, _reference_transport(g, sc))
        again = transport(random_group_element(random.Random(3), 4, FIELD_LRAT), moved, revalidate=False)
        _assert_same_point(again, _reference_transport(random_group_element(random.Random(3), 4, FIELD_LRAT), moved))
        _assert_reports_agree(again)
        assert ran == {"field": 2, "scalars": 2}
        # an l-dependent g moves over the field, and the point it makes lies
        # in Q[l] (degree 3 here), so it is checked and moved on its image
        g = _unipotent([(1, 3, L), (2, 1, -L), (3, 2, 2 * L - 1)])
        moved = transport(g, sc)
        _assert_same_point(moved, _reference_transport(g, sc))
        assert max(len(x.num) for plane in moved.alpha for row in plane for x in row) >= 4
        h = _rational_group_element(random.Random(4), FIELD_LRAT)
        _assert_same_point(transport(h, moved), _reference_transport(h, moved))
        assert ran == {"field": 3, "image": 1, "scalars": 2, "ints": 2}
        # a denominator in l: over the field
        g = _unipotent([(1, 2, 1 / (1 - L)), (0, 3, L)])
        moved = transport(g, sc, revalidate=False)
        _assert_same_point(moved, _reference_transport(g, sc))
        _assert_reports_agree(moved)
        assert ran == {"field": 4, "image": 1, "scalars": 3, "ints": 2}
        # a Q(z) point moved by a g with a z-part
        fixed = catalog.get("(10|1)")
        g = Matrix.from_rows([[1, 0, 0, 0], [0, 1, ZETA, 0], [0, 0, 1, 0], [0, 1, 0, 1]], FIELD_C8)
        _assert_same_point(transport(g, fixed), _reference_transport(g, fixed))
        assert ran == {"field": 5, "image": 1, "scalars": 4, "ints": 2}


def _falling(d, c=1):
    """c * l (l - 1) ... (l - 3d + 1): zero at l = 0, 1, ..., 3d - 1."""
    out = LambdaRat.coerce(c)
    for i in range(3 * d):
        out = out * (L - i)
    return out


@pytest.mark.parametrize("place", sorted(_PLACES))
def test_shift_vanishing_at_the_first_points_matches_reference(catalog, place):
    # family points (d = 1), moved or not, with one constant shifted by
    # c l (l - 1) (l - 2) at each kind of place
    rng = random.Random(sorted(_PLACES).index(place))
    with _paths() as ran:
        for label in ("(18;l|0)", "(18;l|1)", "(18;l|2)"):
            sc = catalog.entry(label).sc
            for point in (sc, transport(random_group_element(rng, 4, FIELD_LRAT), sc)):
                which, index = _PLACES[place](rng.randint)
                _assert_reports_agree(_perturbed(point, which, index, _falling(1, rng.choice((1, -2, Cyclo8(1) / 3)))))
    assert ran["ints"] == 3 + 6


def test_violation_of_degree_3d_seen_only_at_the_last_point():
    # e_2 e_2 = (l - 2) e_2 and sigma(e_2) = l e_2, the rest as in C_4: the
    # unit holds, d = 1, and family 5 at (2, 2, 2) reads (l - 2) l - l^2 (l - 2),
    # which vanishes at l = 0, 1, 2 and not at l = 3
    one, zero = LambdaRat.coerce(1), LambdaRat.coerce(0)
    alpha = [[[one if 0 in (i, j) and k == i + j else zero for k in range(4)] for j in range(4)] for i in range(4)]
    alpha[1][1][1] = L - 2
    gamma = [[(L if r == 1 else one) if r == c else zero for c in range(4)] for r in range(4)]
    point = StructureConstants(4, alpha, gamma, FIELD_LRAT)
    with _paths() as ran:
        report = check_axioms(point)
    assert ran == {"ints": 1}
    assert report[5] == ((2, 2, 2),) and report[6] == ((2, 2),)
    assert report == _reference_check_axioms(point)


@pytest.mark.parametrize("which, index", [("alpha", (0, 1, 1)), ("alpha", (1, 2, 3)), ("gamma", (2, 0)),
                                          ("gamma", (3, 2))])
def test_violation_vanishing_at_a_large_integer_matches_reference(catalog, which, index):
    # a family constant shifted by l - 1000, moved or not: every equation it
    # breaks vanishes at l = 1000, far above the degree of the equations
    sc = catalog.get("(18;l|2)")
    with _paths() as ran:
        for point in (sc, transport(random_group_element(random.Random(5), 4, FIELD_LRAT), sc, revalidate=False)):
            bad = _perturbed(point, which, index, L - 1000)
            report = check_axioms(bad)
            assert not axioms_ok(report)
            assert report == _reference_check_axioms(bad)
    assert ran["ints"] == 2


@pytest.mark.parametrize("which, index", [("alpha", (0, 1, 1)), ("alpha", (3, 0, 3)), ("gamma", (2, 0))])
def test_unit_break_vanishing_at_zero_is_decided_over_all_points(catalog, which, index):
    # the unit holds at l = 0 only; the triples and pairs on e_1 are then
    # checked, as over Q(z)(l)
    bad = _perturbed(catalog.get("(18;l|2)"), which, index, L)
    report = check_axioms(bad)
    assert report == _reference_check_axioms(bad)
    assert any(1 in t[:-1] for t in report[3] + report[5])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_seeded_family_points_match_reference(catalog, data):
    # a family point moved by an l-dependent unipotent g and then by a
    # random g over Q, with a shift in Q[l] or outside it
    sc = catalog.entry(data.draw(st.sampled_from(["(18;l|0)", "(18;l|1)", "(18;l|2)"]))).sc
    steps = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                                         st.sampled_from([L, -L, 2 * L, L / 2, 3 - L, Cyclo8(1)])),
                               min_size=1, max_size=3))
    g = _unipotent([(0 if r == c else r, c, x) for r, c, x in steps])
    point = transport(g, sc, revalidate=False)
    delta = data.draw(st.sampled_from([None, L ** 2 - 2, _falling(1), _falling(2, -1), ZETA * L, 1 / (1 - L)]))
    if delta is not None:
        which, index = _PLACES[data.draw(st.sampled_from(sorted(_PLACES)))](
            lambda lo, hi: data.draw(st.integers(lo, hi)))
        point = _perturbed(point, which, index, delta)
    _assert_reports_agree(point)
    h = random_group_element(random.Random(data.draw(st.integers(0, 99))), 4, FIELD_LRAT)
    moved = transport(h, point, revalidate=False)
    _assert_same_point(moved, _reference_transport(h, point))
    _assert_reports_agree(moved)


# ------------------------------------- certificates read through numerators

def _reference_verify_specialization(cert, catalog):
    """`verify_specialization` as it was: the inverse-based transport over
    Q(z)(l)(t), each constant reduced, then its valuation and value at 0."""
    src, tgt = catalog.get(cert.source), catalog.get(cert.target)
    n, lam = src.n, cert.lambda_sub
    if lam is not None and lam.is_constant() and any(lam.constant_value() == bad for bad in FORBIDDEN_LAMBDA):
        return Outcome(NOT_VERIFIED, "substitution", "the substituted parameter is identically an excluded value")
    if list(cert.curve.column(0)) != [FIELD_TRAT.one] + [FIELD_TRAT.zero] * (n - 1):
        return Outcome(NOT_VERIFIED, "curve", "curve must fix the unit (first column e_1)")
    if cert.curve.determinant().is_zero():
        return Outcome(NOT_VERIFIED, "curve-not-generic", "det of the basis curve vanishes identically")
    composed = cert.curve
    if cert.pre_change is not None:
        composed = matmul(matrix_over_trat(cert.pre_change, lam), cert.curve)
    if composed.determinant().is_zero():
        return Outcome(NOT_VERIFIED, "curve-not-generic", "composed curve is singular for all t")
    moved = _reference_transport(composed, sc_over_trat(src, lam), field=FIELD_TRAT)
    blocks = [(f"alpha[{i + 1}][{j + 1}][{k + 1}]", moved.alpha[i][j][k])
              for i in range(n) for j in range(n) for k in range(n)]
    blocks += [(f"gamma[{r + 1}][{c + 1}]", moved.gamma[r][c]) for r in range(n) for c in range(n)]
    for where, e in blocks:
        if e.order_at_zero() < 0:
            return Outcome(NOT_VERIFIED, "regularity", f"{where} = {e} has a pole at t = 0")
    values = [eval_at_zero(e) for _, e in blocks]
    limit_alpha = [[values[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    limit_gamma = [values[n ** 3 + r * n:n ** 3 + (r + 1) * n] for r in range(n)]
    field = FIELD_LRAT if any(isinstance(x, LambdaRat) for x in values[:n ** 3]) else FIELD_C8
    try:
        limit = validate(StructureConstants(n, limit_alpha, limit_gamma, field))
    except Exception as exc:
        return Outcome(NOT_VERIFIED, "limit", f"limit point violates the defining equations: {exc}")
    expected = tgt if cert.post_change is None else transport(cert.post_change, tgt)
    if limit == expected:
        return Outcome(VERIFIED)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not (limit.alpha[i][j][k] == expected.alpha[i][j][k]):
                    return Outcome(NOT_VERIFIED, "limit-mismatch",
                                   f"alpha[{i + 1}][{j + 1}][{k + 1}]: limit {limit.alpha[i][j][k]} "
                                   f"vs target {expected.alpha[i][j][k]}")
    return Outcome(NOT_VERIFIED, "limit-mismatch", "involution constants differ at t = 0")


def _specialization_certs(catalog):
    certs = [c for name in ("spec_dim3", "spec_dim2", "family_limits") for c in load_cert_file(name, 4)]
    return certs + [scaling_cert(label, catalog) for label in catalog.labels()]


def test_numerators_give_the_reference_valuations_and_limits(catalog):
    # every transported constant of the 104 specialization, family-limit and
    # scaling certificates: N / det g is the reference constant, ord N - ord
    # det g its valuation at 0, and the limit the same value, type and print
    certs = _specialization_certs(catalog)
    assert len(certs) == 104
    for cert in certs:
        curve = cert.curve
        if cert.pre_change is not None:
            curve = matmul(matrix_over_trat(cert.pre_change, cert.lambda_sub), curve)
        src_t = sc_over_trat(catalog.entry(cert.source).sc, cert.lambda_sub)
        ref = _reference_transport(curve, src_t, field=FIELD_TRAT)
        nums, gnums, det = moved_numerators(curve, src_t, FIELD_TRAT)
        order, low = det.order_at_zero(), _lowest(det)
        pairs = [(nums[i][j].get(k, TRat.coerce(0)), ref.alpha[i][j][k])
                 for i in range(4) for j in range(4) for k in range(4)]
        pairs += [(gnums[r][c], ref.gamma[r][c]) for r in range(4) for c in range(4)]
        for num, e in pairs:
            assert num / det == e
            assert (ORDER_INF if not num else num.order_at_zero() - order) == e.order_at_zero()
            if e.order_at_zero() >= 0:
                value, expected = (_lowest(num) / low if num and num.order_at_zero() == order else Cyclo8(0),
                                   eval_at_zero(e))
                assert (value, type(value), str(value)) == (expected, type(expected), str(expected))


def _bent(cert, powers):
    """The certificate with its curve times diag(1, t^a, t^b, t^c)."""
    diag = Matrix.from_rows([[T_VAR ** powers[r - 1] if r == c and r else int(r == c) for c in range(4)]
                             for r in range(4)], FIELD_TRAT)
    return SpecializationCert(cert.source, cert.target, cert.pre_change, matmul(cert.curve, diag), cert.post_change,
                              cert.lambda_sub, cert.name)


def test_outcomes_and_detail_strings_match_reference(catalog):
    # the 104 certificates verify; bending their curves gives poles, limits
    # off the target and singular curves, each reported as the reference does
    stages = Counter()
    rng = random.Random(1203)
    for cert in _specialization_certs(catalog):
        assert verify_cert(cert, catalog) == _reference_verify_specialization(cert, catalog) == Outcome(VERIFIED)
        for powers in ([0, 0, 1], [1, 0, 0], [rng.randint(0, 2) for _ in range(3)]):
            bent = _bent(cert, powers)
            outcome = verify_cert(bent, catalog)
            assert str(outcome) == str(_reference_verify_specialization(bent, catalog))
            stages[outcome.stage] += 1
    assert stages["regularity"] >= 30 and stages["limit-mismatch"] >= 80, stages


# --------------------------------------- certificates on the t-image in ints

def _assert_t_image_matches_reference(cert, src):
    """Every transported constant read on the t-image of cert has the
    valuation and the limit (value, type and print) that the numerators over
    Q(z)(l)(t) give, and its decoded quotient is that constant."""
    b, nums, gnums, det, ascale, gscale = certs._t_image(cert, src)
    curve = cert.curve
    if cert.pre_change is not None:
        curve = matmul(matrix_over_trat(cert.pre_change, None), curve)
    ref_nums, ref_gnums, ref_det = moved_numerators(curve, sc_over_trat(src, None), FIELD_TRAT)
    k, low = certs._int_order(b, det), certs._int_lowest(b, det)
    assert k == ref_det.order_at_zero()
    n = src.n
    pairs = [(nums[i][j].get(c, 0), ref_nums[i][j].get(c, TRat.coerce(0)), ascale)
             for i in range(n) for j in range(n) for c in range(n)]
    pairs += [(gnums[r][c], ref_gnums[r][c], gscale) for r in range(n) for c in range(n)]
    for v, ref, scale in pairs:
        assert bool(v) == bool(ref)
        if not v:
            continue
        assert certs._int_order(b, v) - k == ref.order_at_zero() - k
        assert certs._decoded(b, v) / (certs._decoded(b, det) * scale) == ref / ref_det
        if certs._int_order(b, v) == k:
            value, want = certs._int_lowest(b, v) / (low * scale), _lowest(ref) / _lowest(ref_det)
            assert (value, type(value), str(value)) == (want, type(want), str(want))


def test_t_image_gives_the_reference_valuations_and_limits(catalog):
    # 93 of the 104 certificates run on ints; the 11 others have z-parts
    # (2), an l-dependent pre-change (1), a substituted parameter (5) or a
    # family source (3 scaling certificates)
    with _paths() as ran:
        for cert in _specialization_certs(catalog):
            assert verify_cert(cert, catalog).verified
    assert (ran["t-ints"], ran["t-field"]) == (93, 11)
    for cert in _specialization_certs(catalog):
        src = catalog.entry(cert.source).sc
        if certs._t_image(cert, src) is not None:
            _assert_t_image_matches_reference(cert, src)


def test_t_image_bound_is_reached_by_a_pinned_curve():
    # n = 2, every structure constant +-1 (m = 1) and the constant curve
    # [[1, 999], [0, 1000]] (e = 1, c = 1000): N[2][2][1] sums the 8 signed
    # products 1999^2 * 1999, within a factor 1.002 of H = 8 * 1000^3, so
    # its signed digit needs 2^(b-1) > H
    point = StructureConstants(2, [[[1, -1], [1, -1]], [[1, -1], [1, -1]]], [[1, 0], [0, -1]], FIELD_C8)
    curve = Matrix.from_rows([[1, 999], [0, 1000]], FIELD_TRAT)
    cert = SpecializationCert("src", "tgt", None, curve, None)
    b, nums, *_ = certs._t_image(cert, point)
    assert nums[1][1][0] == 1999 ** 3 and 2 ** (b - 2) < 8 * 1000 ** 3 < 2 ** (b - 1)
    _assert_t_image_matches_reference(cert, point)
    for t_power in (1, 2):
        bent = Matrix.from_rows([[1, 999 * T_VAR ** t_power], [0, 1000 * T_VAR ** t_power]], FIELD_TRAT)
        _assert_t_image_matches_reference(SpecializationCert("src", "tgt", None, bent, None), point)


def test_signed_digits_at_the_edge():
    # coefficients of size 2^(b-1) - 1, of either sign, around zero digits
    b = 12
    top = 2 ** (b - 1) - 1
    for coeffs in ([0, 0, top, -top, 0, -1], [-top, 0, 0, top], [0, 1, -top, top, -top]):
        v = sum(c << b * k for k, c in enumerate(coeffs))
        o = next(k for k, c in enumerate(coeffs) if c)
        assert certs._int_order(b, v) == o and certs._int_lowest(b, v) == coeffs[o]
        assert certs._decoded(b, v) == TRat([Cyclo8(c) for c in coeffs])


def test_an_unvalidated_target_equal_to_the_limit_is_checked(catalog):
    # the identity curve on a point that breaks associativity: the limit is
    # that point, and so is the target passed in unvalidated, so the limit's
    # equations are checked before the match
    bad = _perturbed(catalog.get("(1|0)"), "alpha", (1, 1, 0), Cyclo8(1))
    target = StructureConstants(4, bad.alpha, bad.gamma, FIELD_C8)
    cert = SpecializationCert("src", "tgt", None, Matrix.identity(4, FIELD_TRAT), None)
    out = certs._verify(cert, bad, target)
    assert (out.status, out.stage) == (NOT_VERIFIED, "limit")
    good = catalog.get("(1|0)")
    out = certs._verify(cert, good, StructureConstants(4, good.alpha, good.gamma, FIELD_C8))
    assert out == Outcome(VERIFIED)


def test_a_failed_post_change_keeps_the_stage_order(catalog):
    # a singular post-change: "post-change" for a valid limit, "limit" for
    # an invalid one, whose check comes first
    singular = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], FIELD_C8)
    cert = SpecializationCert("(10|1)", "(10|1)", None, Matrix.identity(4, FIELD_TRAT), singular)
    out = verify_cert(cert, catalog)
    assert (out.stage, out.detail) == ("post-change", "matrix is singular")
    bad = _perturbed(catalog.get("(10|1)"), "alpha", (1, 1, 0), Cyclo8(1))
    out = certs._verify(cert, bad, catalog.get(cert.target))
    assert out.stage == "limit"


def test_a_singular_curve_or_pre_change_keeps_the_stage_order(catalog):
    # det G(t0) = 0 on the t-image: the curve's own determinant then decides
    # between the curve and the pre-change, as before
    singular = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]], FIELD_C8)
    flat = Matrix.from_rows([[1, 0, 0, 0], [0, T_VAR, 0, 0], [0, T_VAR, 0, 0], [0, 0, 0, 1]], FIELD_TRAT)
    for pre, curve, stage, detail in (
            (None, flat, "curve-not-generic", "det of the basis curve vanishes identically"),
            (singular, flat, "curve-not-generic", "det of the basis curve vanishes identically"),
            (singular, Matrix.identity(4, FIELD_TRAT), "pre-change", "matrix is singular")):
        cert = SpecializationCert("(7|1)", "(8|1)", pre, curve, None)
        with _paths() as ran:
            out = verify_cert(cert, catalog)
        assert (out.stage, out.detail, ran["t-ints"]) == (stage, detail, 1)
