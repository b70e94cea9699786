import random

import pytest

from superdegen.invariants import (WrongComponent, closed_set_member, derivation_system, fingerprint,
                                   orbit_dim, radical_basis, square_zero_subspace_dim2, stabilizer_dim)
from superdegen.structure import grading_split, random_group_element, transport


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
            from superdegen.linalg import Matrix
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
