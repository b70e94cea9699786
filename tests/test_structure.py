import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superdegen.certs import _lift_matrix_to_trat, _sc_over_trat, load_cert_file
from superdegen.cyclo import Cyclo8
from superdegen.linalg import FIELD_C8, FIELD_LRAT, FIELD_TRAT, Matrix, Singular
from superdegen.structure import (AxiomError, NotInGroup, StructureConstants, axioms_ok,
                                  check_axioms, cn_structure, forget_grading, grading_split,
                                  group_element, random_group_element, transport, transport_algebra,
                                  validate, with_trivial_grading)


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


def test_nonunital_mode_checks_three_families(catalog):
    sc = catalog.get("(7|2)")
    report = check_axioms(sc, unital=False)
    assert set(report) == {3, 5, 6}
    assert axioms_ok(report)


def test_grading_split_examples(catalog):
    assert grading_split(catalog.get("(7|2)")).dim0 == 2
    assert grading_split(catalog.get("(9|3)")).dim0 == 1
    triv = with_trivial_grading(catalog.get("(1|0)").alpha, FIELD_C8)
    assert grading_split(triv).dim0 == 4


def test_transport_identity_and_group_guard(catalog):
    sc = catalog.get("(9|2)")
    ident = Matrix.identity(4, FIELD_C8)
    assert transport(ident, sc) == sc
    bad = Matrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], FIELD_C8)
    with pytest.raises(NotInGroup):
        transport(bad, sc)  # first column must stay e_1


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
    back = with_trivial_grading(alpha, FIELD_C8)
    assert back.alpha == alpha
    assert grading_split(back).dim0 == 4
    assert back.gamma_matrix().determinant() == 1


def test_embed_equivariance(catalog):
    # transporting then embedding equals embedding then transporting
    rng = random.Random(5)
    alpha = catalog.get("(10|0)").alpha
    for _ in range(5):
        g = random_group_element(rng, 4)
        left = with_trivial_grading(transport_algebra(g, alpha, FIELD_C8), FIELD_C8)
        right = transport(g, with_trivial_grading(alpha, FIELD_C8))
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
    triv = with_trivial_grading(cn_structure(4, 4).alpha, FIELD_C8)
    assert cn_structure(4, 4) == triv
    with pytest.raises(ValueError):
        cn_structure(4, 5)


def test_forget_of_closed_orbit_is_square_zero(catalog):
    assert forget_grading(catalog.get("(9|3)")) == forget_grading(cn_structure(4, 4))


# ------------------------------------------------------- oracles for the kernel

def _reference_check_axioms(sc: StructureConstants, unital: bool = True) -> dict:
    """The dense loops over every index that `check_axioms` replaced, kept as its oracle."""
    n, alpha, gamma = sc.n, sc.alpha, sc.gamma
    z = sc.field.zero
    one = sc.field.one
    report = {k: [] for k in ((1, 2, 3, 4, 5, 6) if unital else (3, 5, 6))}

    def delta(a, b):
        return one if a == b else z

    if unital:
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
    lam = [[field.lift(g.at(r, c)) for c in range(n)] for r in range(n)]
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
                    nk = nu.at(k, l)
                    if not (nk.is_zero() or Bij[l].is_zero()):
                        acc = acc + nk * Bij[l]
                alpha[i][j][k] = acc
    gmat = nu * sc.gamma_matrix().map_entries(field.lift, field) * g
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
    for unital in (True, False):
        assert check_axioms(sc, unital) == _reference_check_axioms(sc, unital)


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
        for cert in load_cert_file(name):
            src = catalog.entry(cert.source).sc
            curve = cert.curve
            if cert.pre_change is not None:
                curve = _lift_matrix_to_trat(cert.pre_change, cert.lambda_sub) * curve
            src_t = _sc_over_trat(src, cert.lambda_sub)
            moved = transport(curve, src_t, field=FIELD_TRAT, revalidate=False)
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
    assert check_axioms(bad, unital=False) == _reference_check_axioms(bad, unital=False)


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
