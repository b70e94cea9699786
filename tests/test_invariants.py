import random
from collections import Counter
from fractions import Fraction

import pytest

from superdegen import invariants
from superdegen.cyclo import ZETA, Cyclo8
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
    assert closed_set_member(catalog.get("(9|2)"))["A"]
    assert closed_set_member(catalog.get("(16|3)"))["D"]
    assert not closed_set_member(catalog.get("(16|1)"))["D"]
    assert closed_set_member(catalog.get("(13|1)"))["B"]
    assert not closed_set_member(catalog.get("(14|1)"))["B"]
    assert "C" not in closed_set_member(catalog.get("(14|1)"))  # 3-dimensional even part


# --- the one closed-set pass against the five-branch membership test ---

def _reference_closed_set_member(sc, name, split=None):
    """Membership in one closed set, one set per call, as before the table
    of `closed_set_member`; kept as its oracle."""
    if name not in ("A", "B", "C", "D", "E"):
        raise ValueError(f"unknown closed set {name!r}")
    split = split or grading_split(sc)
    if name == "A":
        for u in split.basis1:
            for v in split.basis1:
                if any(not c.is_zero() for c in sc.multiply(u, v)):
                    return False
        return True
    if name == "B":
        for u in split.basis0:
            for v in split.basis0:
                uv = sc.multiply(u, v)
                vu = sc.multiply(v, u)
                if any(not (a - b).is_zero() for a, b in zip(uv, vu)):
                    return False
        return True
    if split.dim0 != 2:
        raise WrongComponent(f"set ({name}) is defined on the component with a 2-dimensional even part")
    j = square_zero_subspace_dim2(sc, split.basis0)
    if len(j) != 1:
        return False
    if name == "C":
        return True
    for w in split.basis1:
        prod = sc.multiply(j[0], w) if name == "D" else sc.multiply(w, j[0])
        if any(not c.is_zero() for c in prod):
            return False
    return True


def _assert_table_matches_reference(sc):
    split = grading_split(sc)
    table = closed_set_member(sc, split)
    defined = ("A", "B", "C", "D", "E") if split.dim0 == 2 else ("A", "B")
    assert list(table) == list(defined)
    assert all(type(v) is bool for v in table.values())
    for name in ("A", "B", "C", "D", "E"):
        if name in defined:
            assert table[name] == _reference_closed_set_member(sc, name, split), name
        else:
            with pytest.raises(WrongComponent):
                _reference_closed_set_member(sc, name, split)
    return table


def test_closed_set_table_matches_reference_on_entries(catalog):
    seen = Counter()
    for e in catalog.entries.values():
        table = _assert_table_matches_reference(e.sc)
        assert table == e.closed_sets, e.label
        seen.update(name for name, v in table.items() if v)
        seen.update(f"not {name}" for name, v in table.items() if not v)
    # every set is met both ways on the catalog, D and E included
    assert all(seen[name] and seen[f"not {name}"] for name in ("A", "B", "C", "D", "E")), seen


def test_closed_set_table_matches_reference_on_fuzz_points(benchmark_points):
    # one pass of each fuzz workload on seeds 101 and 7
    count = 0
    for workload in ("fuzz-fixed", "fuzz-family"):
        for seed in (101, 7):
            for sc in benchmark_points(workload, seed):
                _assert_table_matches_reference(sc)
                count += 1
    assert count == 2 * (116 + 60)


def test_closed_set_table_matches_reference_on_rational_and_z_moves(catalog):
    # family points moved by a g over Q (an l-denominator-free point with
    # rational constants) and by a g with a z-part
    rng = random.Random(53)
    for label in ("(18;l|0)", "(18;l|1)", "(18;l|2)", "(16|1)", "(16|3)"):
        sc = catalog.entry(label).sc
        for _ in range(2):
            rows = [[Fraction(int(r == 0)) if c == 0 else Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                     for c in range(4)] for r in range(4)]
            g = Matrix.from_rows([[sc.field.lift(Cyclo8(x)) for x in row] for row in rows], sc.field)
            if g.determinant().is_zero():
                continue
            _assert_table_matches_reference(transport(g, sc))
        g = Matrix.from_rows([[1, 0, 0, 1], [0, 1, ZETA, 0], [0, 0, 1, 0], [0, 1 - ZETA, 0, 1]], sc.field)
        _assert_table_matches_reference(transport(g, sc))


def test_fingerprint_solves_for_j_once(catalog, monkeypatch):
    calls = []
    real = invariants.square_zero_subspace_dim2
    monkeypatch.setattr(invariants, "square_zero_subspace_dim2", lambda sc, b: calls.append(sc) or real(sc, b))
    for label, solves in (("(16|1)", 1), ("(18;l|2)", 1), ("(14|1)", 0), ("(9|3)", 0)):
        calls.clear()
        fingerprint(catalog.get(label))
        assert len(calls) == solves, label


def test_auto_obstructions_take_the_first_separating_method(graph):
    # the graph's "auto (X)" evidence against the orbit dimensions and the
    # reference sets, methods tried in the order OD, A, B, C, D, E
    catalog, auto = graph.catalog, 0
    for s, src in catalog.entries.items():
        for t, tgt in catalog.entries.items():
            if s == t or src.component != tgt.component or (s, t) in graph.edges:
                continue
            if graph.obstructed.get((s, t), "").startswith("certificate"):
                continue
            first = None
            if (src.orbit_dim < tgt.orbit_dim) if src.parametric else (src.orbit_dim <= tgt.orbit_dim):
                first = "OD"
            for name in ("A", "B", "C", "D", "E") if src.component == 2 else ("A", "B"):
                if first is None and (_reference_closed_set_member(src.sc, name)
                                      and not _reference_closed_set_member(tgt.sc, name)):
                    first = name
            assert graph.obstructed.get((s, t)) == (None if first is None else f"auto ({first})"), (s, t)
            auto += first is not None
    assert auto > 0


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


# --- degree-0 images: ranks on ints against the Matrix.rank path ---

def _matrix_path(sc):
    """sc without an integer image: `stabilizer_dim` then ranks with Matrix.rank."""
    return StructureConstants(sc.n, sc.alpha, sc.gamma, sc.field, validated=sc.validated, image=False)


def _rank_calls(monkeypatch):
    calls = []
    real = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda m: calls.append(m) or real(m))
    return calls


def test_degree_0_stabilizer_matches_the_matrix_rank_path_on_entries(catalog, monkeypatch):
    calls = _rank_calls(monkeypatch)
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        for graded in (True, False):
            calls.clear()
            on_ints = stabilizer_dim(sc, graded)
            assert not calls  # the kept image takes every entry's rank on ints
            assert on_ints == stabilizer_dim(_matrix_path(sc), graded), (label, graded)
            assert len(calls) == 1


def test_degree_0_stabilizer_matches_the_matrix_rank_path_on_perturbed_points(catalog, monkeypatch):
    # one constant of a fixed entry shifted by a rational, the point read over
    # Q(z)(l): a degree-0 image (D or E = 2 or 3 for the fractional shifts),
    # against the same point over Q(z) with no image; both unit-free and full
    # systems, which are the same rows either way
    calls = _rank_calls(monkeypatch)
    rng = random.Random(47)
    fixed = [label for label in catalog.labels() if not catalog.entry(label).parametric]
    for label in fixed:
        sc = catalog.entry(label).sc
        for _ in range(2):
            alpha = [[list(row) for row in plane] for plane in sc.alpha]
            gamma = [list(row) for row in sc.gamma]
            delta = Cyclo8(Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3))))
            if rng.random() < 0.75:
                i, j, k = (rng.randrange(4) for _ in range(3))
                alpha[i][j][k] += delta
            else:
                r, c = rng.randrange(4), rng.randrange(4)
                gamma[r][c] += delta
            for validated in (True, False):
                point = StructureConstants(4, alpha, gamma, FIELD_LRAT, validated=validated)
                plain = StructureConstants(4, alpha, gamma, FIELD_C8, validated=validated)
                assert invariants._image(point)[4] == 0 and invariants._image(plain) is None
                for graded in (True, False):
                    calls.clear()
                    assert stabilizer_dim(point, graded) == stabilizer_dim(plain, graded), (label, validated)
                    assert len(calls) == 1
