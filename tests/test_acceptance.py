"""Acceptance suite: one test per criterion, each printing a verdict line.

Expected values appearing here are frozen independently of the package data:
the stabilizer-dimension table is typed out row by row, the generic lists
per component are spelled out, and all certificate counts are pinned.
"""

import random
import time

from superdegen.certs import VERIFIED, load_cert_file, scaling_cert, verify_cert
from superdegen.graph import generic_structures, load_undetermined
from superdegen.invariants import fingerprint, orbit_dim, radical_basis, square_zero_subspace_dim2, stabilizer_dim
from superdegen.linalg import FIELD_C8, FIELD_TRAT, Matrix
from superdegen.structure import (StructureConstants, cn_structure, forget_grading, grading_split,
                                  random_group_element, transport, transport_algebra, validate)
from superdegen.certs import SpecializationCert
from superdegen.tpoly import T_VAR

# stabilizer dimensions, one row per underlying algebra, columns by grading index
STAB_TABLE = {
    "1": (0, 0, 0), "2": (1, 1, 1, 1), "3": (2, 2, 2, 1), "4": (2, 1), "5": (3, 2),
    "6": (4, 2, 4), "7": (4, 2, 3, 2), "8": (5, 3, 3, 3), "9": (9, 5, 5, 9),
    "10": (3, 1), "11": (4, 3, 2, 2), "12": (6, 3, 4), "13": (2, 1),
    "14": (3, 3, 2, 2), "15": (3, 3, 2, 2), "16": (4, 3, 3, 2), "17": (6, 3, 4),
    "18;l": (4, 3, 2), "19": (4, 2),
}

GENERIC_4 = ("(1|0)", "(10|0)", "(13|0)", "(17|0)", "(18;l|0)")
GENERIC_3 = ("(1|1)", "(11|1)", "(13|1)", "(14|1)", "(15|1)", "(17|1)")
GENERIC_2 = ("(1|2)", "(10|1)", "(11|3)", "(14|3)", "(15|3)", "(17|2)", "(18;l|1)", "(18;l|2)")

ERRATUM_PAIR = ("(10|1)", "(11|3)")


def _report(num, elapsed, detail):
    print(f"[criterion {num}] PASS ({elapsed:.2f}s) {detail}")


def test_criterion_1_catalog_validity(catalog):
    t0 = time.time()
    for e in catalog.entries.values():
        assert e.sc.validated, e.label  # defining equations checked on load
    for label in ("(18;l|0)", "(18;l|1)", "(18;l|2)"):
        for v in (2, 5):
            sub = catalog.get(label, v)
            assert sub.validated
            assert grading_split(sub).dim0 == catalog.entry(label).component
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(1, elapsed, f"{len(catalog)} entries pass the defining equations; "
                        "families symbolically and at parameter values 2, 5")


def test_criterion_2_and_3_dimension_tables(catalog):
    t0 = time.time()
    seen = set()
    for e in catalog.entries.values():
        j = int(e.label.split("|")[1].rstrip(")"))
        expected = STAB_TABLE[e.family][j]
        stab = stabilizer_dim(e.sc)
        assert stab == expected, (e.label, stab, expected)
        assert orbit_dim(e.sc) == 12 - expected, e.label
        seen.add((e.family, j))
    assert len(seen) == sum(len(v) for v in STAB_TABLE.values()) == 61
    elapsed = time.time() - t0
    assert elapsed < 30
    _report(2, elapsed, "all 19 table rows reproduced (stabilizers)")
    _report(3, elapsed, "orbit dimensions equal 12 - stabilizer throughout")


def test_criterion_4_existence_suite(catalog):
    t0 = time.time()
    dim3 = load_cert_file("spec_dim3", 4)
    dim2 = load_cert_file("spec_dim2", 4)
    fams = load_cert_file("family_limits", 4)
    assert len(dim3) == 17
    assert len(dim2) == 21
    assert any(c.source == "(18;l|2)" and c.target == "(8|3)" for c in dim2)
    assert len(fams) == 5
    for cert in dim3 + dim2 + fams:
        out = verify_cert(cert, catalog)
        assert out.verified, (cert.describe(), str(out))
    count = 0
    for label in catalog.labels():
        cert = scaling_cert(label, catalog)
        out = verify_cert(cert, catalog)
        assert out.verified, (label, str(out))
        count += 1
    assert count == 61
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(4, elapsed, f"17 + 21 specializations, 5 family limits, {count} scaling certificates")


def test_criterion_5_nonexistence_suite(catalog):
    t0 = time.time()
    certs = (load_cert_file("obstructions_dim3", 4) + load_cert_file("obstructions_dim2", 4)
             + load_cert_file("obstructions_dim0", 4))
    assert len(certs) == 24 + 39 + 8
    erratum_hits = []
    for cert in certs:
        out = verify_cert(cert, catalog)
        assert out.status == cert.expected, (cert.describe(), str(out))
        if cert.expected != VERIFIED:
            erratum_hits.append((cert.source, cert.target))
        if cert.method == "OD" and cert.expected == VERIFIED:
            # cross-check the tag against the orbit-dimension table
            s = orbit_dim(catalog.entry(cert.source).sc)
            tl = orbit_dim(catalog.entry(cert.target).sc)
            assert s <= tl, (cert.describe(), s, tl)
    # exactly one recorded erratum: its tag contradicts the dimension table
    assert erratum_hits == [ERRATUM_PAIR]
    s = orbit_dim(catalog.entry(ERRATUM_PAIR[0]).sc)
    tl = orbit_dim(catalog.entry(ERRATUM_PAIR[1]).sc)
    assert s > tl
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(5, elapsed, "all 71 listed obstructions match their recorded verdicts; "
                        "the single dimension-tag erratum is pinned")


def test_criterion_6_generic_structures(catalog, graph):
    t0 = time.time()
    assert graph.sources(1) == ["(9|3)"]
    assert sorted(graph.sources(3)) == sorted(GENERIC_3)
    assert sorted(graph.sources(2)) == sorted(GENERIC_2 + ("(6|2)", "(19|1)"))
    flags2 = dict(generic_structures(graph, 2))
    assert flags2["(6|2)"] == "undetermined" and flags2["(19|1)"] == "undetermined"
    assert all(flags2[l] != "undetermined" for l in GENERIC_2)
    gen4 = generic_structures(graph, 4)
    assert [l for l, _ in gen4] == list(GENERIC_4)
    assert all(f == "external-data" for _, f in gen4)
    total = sum(1 for comp in (1, 2, 3, 4)
                for _, f in generic_structures(graph, comp) if f != "undetermined")
    assert total == 20
    registered = load_undetermined()
    assert graph.undetermined == sorted(registered)
    elapsed = time.time() - t0
    assert elapsed < 5
    _report(6, elapsed, "sources per component, undetermined flags and the count of 20 reproduced")


def test_criterion_7_property_suite(catalog):
    t0 = time.time()
    rng = random.Random(20240804)
    labels = sorted(catalog.labels())
    # (a) 100-sample transport fuzz
    for k in range(100):
        label = labels[rng.randrange(len(labels))]
        sc = catalog.entry(label).sc
        g = random_group_element(rng, 4, sc.field)
        moved = transport(g, sc)  # re-validation inside: axioms stay satisfied
        assert moved.validated
        assert fingerprint(moved) == fingerprint(sc), label
        assert forget_grading(moved) == transport_algebra(g, sc.alpha, sc.field), label
    # (b) radical oracle equivalence on every 2-dimensional even part
    for e in catalog.entries.values():
        if e.component != 2:
            continue
        basis0 = grading_split(e.sc).basis0
        assert len(radical_basis(e.sc, basis0)) == len(square_zero_subspace_dim2(e.sc, basis0)), e.label
    # (c) involution is diagonalizable with the right trace and determinant
    for e in catalog.entries.values():
        split = grading_split(e.sc)  # raises unless gamma^2 = 1 and the unit is even
        i, n = split.dim0, e.n
        g = Matrix.from_rows(e.sc.gamma, e.sc.field)
        tr = g.entries[0]
        for r in range(1, n):
            tr = tr + g.entries[r * g.cols + r]
        assert tr == 2 * i - n
        assert g.determinant() == (-1) ** (n - i)
    # (d) the 2-dimensional non-homogeneous specialization vector
    f = FIELD_C8
    source = validate(StructureConstants(
        2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[1, 0], [0, -1]], f))
    target = validate(StructureConstants(
        2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [[1, 0], [0, -1]], f))
    t = T_VAR
    curve = Matrix.from_rows([[1, t], [0, t]], FIELD_TRAT)
    cert = SpecializationCert(source="kxk-odd", target="dual-odd",
                              pre_change=None, curve=curve, post_change=None)
    from superdegen.certs import _verify
    assert _verify(cert, source, target).verified
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(7, elapsed, "100-sample fuzz, radical oracle equivalence, involution laws, "
                        "non-homogeneous 2-dimensional vector")


def test_criterion_8_closed_orbits(catalog):
    t0 = time.time()
    pairs = ((4, "(9|0)"), (3, "(9|1)"), (2, "(9|2)"), (1, "(9|3)"))
    dims = set()
    for i, label in pairs:
        assert cn_structure(4, i) == catalog.get(label), label
        dims.add(grading_split(catalog.get(label)).dim0)
    assert dims == {1, 2, 3, 4}
    elapsed = time.time() - t0
    assert elapsed < 1
    _report(8, elapsed, "the four closed-orbit structures match entrywise and split distinctly")
