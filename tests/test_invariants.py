import random

import pytest

from superdegen.invariants import (WrongComponent, closed_set_member, derivation_system, fingerprint,
                                   orbit_dim, radical_basis, square_zero_subspace_dim2, stabilizer_dim)
from superdegen.linalg import FIELD_C8, FIELD_LRAT, Matrix
from superdegen.structure import StructureConstants, grading_split, random_group_element, transport


def test_stabilizer_examples(catalog):
    assert stabilizer_dim(catalog.get("(9|0)")) == 9
    assert stabilizer_dim(catalog.get("(3|2)")) == 2
    assert stabilizer_dim(catalog.entry("(18;l|2)").sc) == 2  # symbolic over the function field


def test_ungraded_stabilizer_forgets_the_grading(catalog):
    # ungraded derivations of any grading of one algebra match its trivially
    # graded entry, where both notions coincide
    for fam, labels in (("16", ("(16|0)", "(16|1)", "(16|3)")),
                        ("9", ("(9|0)", "(9|2)", "(9|3)"))):
        base = stabilizer_dim(catalog.get(f"({fam}|0)"))
        for label in labels:
            assert stabilizer_dim(catalog.get(label), graded=False) == base, label
    assert stabilizer_dim(catalog.get("(16|1)")) == 3
    assert stabilizer_dim(catalog.get("(16|1)"), graded=False) == 4


def test_orbit_examples(catalog):
    assert orbit_dim(catalog.get("(1|0)")) == 12
    assert orbit_dim(catalog.get("(9|3)")) == 3
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        assert orbit_dim(sc) + stabilizer_dim(sc) == 12


def test_whole_dimension_table(catalog):
    for e in catalog.entries.values():
        assert stabilizer_dim(e.sc) == e.expected_stab_dim, e.label
        assert orbit_dim(e.sc) == e.expected_orbit_dim, e.label


def _even_basis(sc):
    return grading_split(sc).basis0


def test_radical_examples(catalog):
    # (3|2)_0 is a product of two fields: radical 0
    sc = catalog.get("(3|2)")
    assert radical_basis(sc, _even_basis(sc)) == []
    # (3|3)_0 and (5|1)_0 have a 1-dimensional square-zero line
    for label in ("(3|3)", "(5|1)"):
        sc = catalog.get(label)
        assert len(radical_basis(sc, _even_basis(sc))) == 1


def test_radical_matches_square_zero_oracle_on_dim2(catalog):
    for e in catalog.entries.values():
        if e.component != 2:
            continue
        basis0 = _even_basis(e.sc)
        trace_form = radical_basis(e.sc, basis0)
        direct = square_zero_subspace_dim2(e.sc, basis0)
        assert len(trace_form) == len(direct), e.label
        if direct:
            # the two lines agree: each vector is in the span of the other
            m = Matrix.from_rows([list(direct[0])], e.sc.field)
            stacked = Matrix.from_rows([list(direct[0]), list(trace_form[0])], e.sc.field)
            assert stacked.rank() == 1, e.label


def test_closed_set_examples(catalog):
    assert closed_set_member(catalog.get("(9|2)"), "A")
    assert closed_set_member(catalog.get("(16|3)"), "D")
    assert not closed_set_member(catalog.get("(16|1)"), "D")
    assert closed_set_member(catalog.get("(13|1)"), "B")
    assert not closed_set_member(catalog.get("(14|1)"), "B")
    with pytest.raises(WrongComponent):
        closed_set_member(catalog.get("(14|1)"), "C")  # 3-dimensional even part


def test_fingerprint_separates_and_collides(catalog):
    fp1 = fingerprint(catalog.get("(16|1)"))
    fp2 = fingerprint(catalog.get("(16|2)"))
    assert fp1 != fp2
    assert (fp1.flag_d, fp1.flag_e) != (fp2.flag_d, fp2.flag_e)
    assert fingerprint(catalog.get("(8|1)")).orbit_dim == 9
    assert fingerprint(catalog.get("(8|2)")).orbit_dim == 9


def test_fingerprint_transport_invariance(catalog):
    rng = random.Random(99)
    for label in ("(16|1)", "(11|3)", "(5|1)"):
        sc = catalog.get(label)
        fp = fingerprint(sc)
        for _ in range(4):
            g = random_group_element(rng, 4)
            assert fingerprint(transport(g, sc)) == fp


def test_fingerprint_collisions_are_reported_not_failed(catalog):
    # fingerprint-equal pairs may exist (the classification separates them by
    # finer arguments); collect them and require the known separations hold
    seen = {}
    collisions = []
    for e in catalog.entries.values():
        fp = fingerprint(e.sc)
        key = (fp.dim0, fp.stab_dim, fp.flag_a, fp.flag_b, fp.dim_j, fp.flag_d, fp.flag_e,
               fp.dim_odd_square, fp.dim_radical)
        if key in seen:
            collisions.append((seen[key], e.label))
        else:
            seen[key] = e.label
    labels = {frozenset(p) for p in collisions}
    assert frozenset(("(16|1)", "(16|2)")) not in labels
    assert frozenset(("(16|1)", "(18;l|1)")) not in labels


def _reference_derivation_rows(sc):
    """The dense loop over every index that built the ungraded rows, kept as an oracle."""
    n, alpha, z = sc.n, sc.alpha, sc.field.zero
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [z] * (n * n)
                for l in range(n):
                    row[k * n + l] = row[k * n + l] + alpha[i][j][l]
                    row[l * n + i] = row[l * n + i] - alpha[l][j][k]
                    row[l * n + j] = row[l * n + j] - alpha[i][l][k]
                rows.append(row)
    return rows


def test_derivation_rows_match_reference(catalog):
    rng = random.Random(31)
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        for point in (sc, transport(random_group_element(rng, 4, sc.field), sc)):
            assert derivation_system(point, graded=False) == _reference_derivation_rows(point), label


# --- the unit-free system of stabilizer_dim against the full system ---

def _full_corank(sc, graded):
    """n^2 minus the rank of the full derivation system, unit rows and columns included."""
    rows = derivation_system(sc, graded)
    return sc.n * sc.n - Matrix.from_rows(rows, sc.field).rank()


def test_unit_free_stabilizer_matches_full_system_on_catalog(catalog):
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        assert sc.validated
        for graded in (True, False):
            assert stabilizer_dim(sc, graded) == _full_corank(sc, graded), (label, graded)


def test_unit_free_stabilizer_matches_full_system_on_transported_points(catalog):
    rng = random.Random(37)
    labels = [l for l in catalog.labels() if catalog.entry(l).sc.field is FIELD_C8]
    points = [transport(random_group_element(rng, 4), catalog.get(l)) for l in rng.sample(labels, 12)]
    for j in range(3):
        sc = catalog.entry(f"(18;l|{j})").sc
        points += [transport(random_group_element(rng, 4, sc.field), sc) for _ in range(2)]
    assert {p.field for p in points} == {FIELD_C8, FIELD_LRAT}
    for point in points:
        assert point.validated
        for graded in (True, False):
            assert stabilizer_dim(point, graded) == _full_corank(point, graded)


def test_unvalidated_point_takes_the_full_system(catalog):
    # structure constants that are not a unital point: without a unit, the
    # unit-free system would leave out the 4 unknowns of D(e_1)
    n, z, one = 4, FIELD_C8.zero, FIELD_C8.one
    alpha = [[[z] * n for _ in range(n)] for _ in range(n)]
    ident = [[one if r == c else z for c in range(n)] for r in range(n)]
    bare = StructureConstants(n, alpha, ident, FIELD_C8)
    assert not bare.validated
    assert stabilizer_dim(bare) == 16 == _full_corank(bare, True)
    # a valid point that has not been validated gets the same answer both ways
    rng = random.Random(41)
    for label in ("(16|1)", "(3|2)", "(18;l|1)"):
        sc = catalog.entry(label).sc
        moved = transport(random_group_element(rng, 4, sc.field), sc, revalidate=False)
        assert not moved.validated
        for graded in (True, False):
            assert stabilizer_dim(moved, graded) == _full_corank(moved, graded)
