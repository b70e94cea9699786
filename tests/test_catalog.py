import json

import pytest

from superdegen.catalog import (CatalogError, CatalogParseError, ForbiddenParameter, UnknownLabel,
                                ValidationError, entry_from_record, load_catalog)
from superdegen.cyclo import Cyclo8
from superdegen.scalars import LAMBDA
from superdegen.structure import cn_structure


def test_census(catalog):
    # Enumerating the classification label by label gives 58 fixed structures
    # plus the three one-parameter families.
    fixed = [e for e in catalog.entries.values() if not e.parametric]
    families = [e for e in catalog.entries.values() if e.parametric]
    assert len(fixed) == 58
    assert len(families) == 3
    per_component = {c: sum(1 for e in catalog.entries.values() if e.component == c)
                     for c in (1, 2, 3, 4)}
    assert per_component == {1: 1, 2: 24, 3: 17, 4: 19}


def test_every_entry_validates(catalog):
    for e in catalog.entries.values():
        assert e.sc.validated


def _records(catalog_path=None):
    import importlib.resources as r
    text = r.files("superdegen.data").joinpath("catalog.json").read_text("utf-8")
    return json.loads(text)["entries"]


def test_wrong_gamma_sign_is_rejected():
    recs = _records()
    rec = next(dict(r) for r in recs if r["label"] == "(7|2)")
    gamma = list(rec["gamma"])
    gamma[5] = "-1"  # flip the sign of an even basis vector
    rec["gamma"] = gamma
    with pytest.raises((ValidationError, CatalogParseError)):
        entry_from_record(rec, {})


def test_lambda_specialized_entry_is_rejected():
    recs = _records()
    rec = next(dict(r) for r in recs if r["label"] == "(18;l|1)")
    rec["alpha"] = [lit.replace("l", "1") for lit in rec["alpha"]]
    with pytest.raises(ValidationError):
        entry_from_record(rec, {})


def test_empty_file_is_a_parse_error(tmp_path):
    p = tmp_path / "empty.json"
    p.write_text("")
    with pytest.raises(CatalogParseError):
        load_catalog(str(p))


def test_duplicate_labels_rejected(tmp_path):
    recs = _records()
    payload = {"entries": recs + [recs[0]]}
    p = tmp_path / "dup.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(ValidationError):
        load_catalog(str(p))


def test_get_guards(catalog):
    with pytest.raises(UnknownLabel):
        catalog.get("(99|0)")
    with pytest.raises(ForbiddenParameter):
        catalog.get("(18;l|1)", 1)
    with pytest.raises(ForbiddenParameter):
        catalog.get("(18;l|1)", -1)
    with pytest.raises(ForbiddenParameter):
        catalog.get("(10|1)", 2)


def test_get_substitution(catalog):
    sc = catalog.get("(18;l|1)", 2)
    assert sc.validated
    # basis 1, X, Y, XY: the reversed product Y X carries the parameter
    assert sc.alpha[2][1][3] == Cyclo8(2)
    assert catalog.get("(18;l|1)").alpha[2][1][3] == LAMBDA


def test_coincidences(catalog):
    results = catalog.coincidence_check()
    assert all(r["ok"] for r in results)
    entrywise = {(r["family"], r["target"]) for r in results if r["kind"] == "entrywise"}
    assert ("(18;l|1)", "(16|1)") in entrywise
    # the boundary member at 0 is NOT the other grading of the same algebra
    sub = catalog._substituted(catalog.entry("(18;l|1)"), Cyclo8(0))
    assert sub != catalog.entry("(16|2)").sc


def test_recorded_base_changes_reproduce_alpha_blocks(catalog):
    assert catalog.check_alpha_blocks() == []


def test_closed_orbit_entries_match_cn(catalog):
    for i, label in ((4, "(9|0)"), (3, "(9|1)"), (2, "(9|2)"), (1, "(9|3)")):
        assert cn_structure(4, i) == catalog.get(label), label
    dims = {catalog.entry(l).component for l in ("(9|0)", "(9|1)", "(9|2)", "(9|3)")}
    assert dims == {1, 2, 3, 4}


def test_env_override(tmp_path, monkeypatch):
    recs = _records()[:3]
    p = tmp_path / "small.json"
    p.write_text(json.dumps({"entries": recs}))
    monkeypatch.setenv("SUPERDEGEN_CATALOG", str(p))
    cat = load_catalog()
    assert len(cat) == 3


# --- one parse per distinct literal, and invariants computed once ---

def _write_catalog(tmp_path, recs):
    p = tmp_path / "catalog.json"
    p.write_text(json.dumps({"entries": recs}))
    return str(p)


def _with_literal(recs, label, key, indices, literal):
    rec = next(r for r in recs if r["label"] == label)
    rec[key] = list(rec[key])
    for i in indices:
        rec[key][i] = literal
    return recs


@pytest.mark.parametrize("recs_of, message", [
    # one bad literal twice in an entry and once more in the next one
    (lambda: _with_literal(_with_literal(_records(), "(7|2)", "alpha", (5, 9), "q"), "(7|3)", "gamma", (0,), "q"),
     "error: (7|2).alpha[5]: bad character at 0 in scalar literal 'q'\n"),
    (lambda: _with_literal(_with_literal(_records(), "(7|2)", "alpha", (5, 9), "1/0"), "(7|3)", "gamma", (0,), "1/0"),
     "error: (7|2).alpha[5]: inverse of 0 in Q(z)\n"),
    # l in a non-parametric entry, twice; (19|0) comes after the families,
    # which have already made l as a scalar of Q(z)(l)
    (lambda: _with_literal(_records(), "(10|1)", "alpha", (40, 41), "l"),
     "error: (10|1).alpha[40]: literal 'l' does not lie in Q(z)\n"),
    (lambda: _with_literal(_records(), "(19|0)", "alpha", (40, 41), "l"),
     "error: (19|0).alpha[40]: literal 'l' does not lie in Q(z)\n"),
])
def test_repeated_bad_literal_names_its_first_occurrence(tmp_path, capsys, recs_of, message):
    from superdegen.cli import main
    path = _write_catalog(tmp_path, recs_of())
    with pytest.raises(CatalogError) as info:
        load_catalog(path)
    assert f"error: {info.value}\n" == message
    code = main(["--catalog", path, "tables", "--kind", "stab"])
    assert code == 2
    assert capsys.readouterr().err == message


def test_entries_share_one_scalar_per_literal(catalog, monkeypatch):
    import superdegen.catalog as catalog_module
    calls = []
    real = catalog_module.parse_scalar
    monkeypatch.setattr(catalog_module, "parse_scalar", lambda text: calls.append(text) or real(text))
    again = load_catalog()
    # 0, 1, -1, 2, -2 over Q(z); 0, 1, -1, l over Q(z)(l)
    assert sorted(calls) == sorted(["0", "1", "-1", "2", "-2", "0", "1", "-1", "l"])
    ones = {id(x) for e in again.entries.values() if not e.parametric
            for plane in e.sc.alpha for row in plane for x in row if x == 1}
    assert len(ones) == 1
    # a fresh load makes fresh scalars: nothing is cached across loads
    assert again.entry("(9|0)").sc.alpha[0][0][0] is not catalog.entry("(9|0)").sc.alpha[0][0][0]
    assert again.entry("(9|0)").sc == catalog.entry("(9|0)").sc


def test_entry_invariants_are_computed_once(monkeypatch):
    import superdegen.catalog as catalog_module
    from superdegen.invariants import orbit_dim, stabilizer_dim
    from superdegen.structure import grading_split
    fresh = load_catalog()
    calls = []
    monkeypatch.setattr(catalog_module, "stabilizer_dim", lambda sc: calls.append(sc) or stabilizer_dim(sc))
    for e in fresh.entries.values():
        assert e.split == grading_split(e.sc)
        assert e.stab_dim == stabilizer_dim(e.sc) == e.expected_stab_dim
        assert e.orbit_dim == orbit_dim(e.sc) == e.expected_orbit_dim
        assert e.stab_dim == e.n * e.n - e.n - e.orbit_dim
    assert len(calls) == len(fresh)


def test_one_grading_split_per_distinct_gamma(monkeypatch):
    import superdegen.catalog as catalog_module
    from superdegen.structure import grading_split
    calls = []
    monkeypatch.setattr(catalog_module, "grading_split", lambda sc: calls.append(sc) or grading_split(sc))
    fresh = load_catalog()
    recs = {r["label"]: r for r in _records()}
    keys = {(r["parametric"], tuple(r["gamma"])) for r in recs.values()}
    assert len(calls) == len(keys) == 6
    by_key = {}
    for e in fresh.entries.values():
        rec = recs[e.label]
        # entries that share a gamma share its split object, and each split
        # is the one the entry's own gamma gives
        assert by_key.setdefault((rec["parametric"], tuple(rec["gamma"])), e.split) is e.split
        assert e.split == grading_split(e.sc)


def test_bad_gamma_shared_by_entries_fails_at_the_first_of_them(tmp_path):
    recs = _records()
    first = next(r for r in recs if r["label"] == "(7|2)")
    gamma = list(first["gamma"])
    same = [r for r in recs if r["gamma"] == gamma and not r["parametric"]]
    assert len(same) >= 2
    for r in same:
        r["gamma"] = list(r["gamma"])
        r["gamma"][5] = "-1"
    with pytest.raises(ValidationError) as info:
        load_catalog(_write_catalog(tmp_path, recs))
    assert str(info.value).startswith(same[0]["label"] + ": ")
    # a gamma with the wrong declared component, shared by two entries: the
    # second entry's declaration is checked against the shared split
    recs = _records()
    same = [r for r in recs if r["gamma"] == gamma and not r["parametric"]]
    same[1]["component"] = 3
    with pytest.raises(ValidationError, match=r"declared component 3 but the involution splits 2\+2") as info:
        load_catalog(_write_catalog(tmp_path, recs))
    assert str(info.value).startswith(same[1]["label"] + ": ")


def _malformed(label, key, value):
    def mutate(recs):
        rec = next(r for r in recs if r["label"] == label)
        rec[key] = value(rec[key]) if callable(value) else value
        return recs
    return mutate


def _ubc_entry(index, literal):
    return _malformed("(1|1)", "u_base_change", lambda lits: lits[:index] + [literal] + lits[index + 1:])


def _resized(label, key, delta):
    return _malformed(label, key, lambda lits: lits[:-1] if delta < 0 else lits + ["0"])


# (mutation, error class, message): shape errors parse as CatalogParseError,
# a base change outside the group fails validation; each names the entry
_MALFORMED = [
    (_malformed("(2|0)", "n", "4"), CatalogParseError, "(2|0): n must be an integer, got '4'"),
    (_malformed("(2|0)", "n", 4.0), CatalogParseError, "(2|0): n must be an integer, got 4.0"),
    (_malformed("(2|0)", "alpha", "0" * 64), CatalogParseError, "(2|0): alpha must be a list of literals"),
    (_malformed("(2|0)", "gamma", {"a": 1}), CatalogParseError, "(2|0): gamma must be a list of literals"),
    (_malformed("(2|0)", "alpha", lambda lits: [["0"]] + lits[1:]), CatalogParseError,
     "(2|0).alpha[0]: scalar literal must be a string, got list"),
    (_malformed("(1|1)", "u_base_change", "1" * 16), CatalogParseError, "(1|1): u_base_change must hold 16 literals"),
    (_ubc_entry(4, "1"), ValidationError, "(1|1): u_base_change: first column must be the unit vector e_1"),
    (_malformed("(1|1)", "u_base_change", ["1", "0", "0", "0", "0", "1", "1", "0", "0", "1", "1", "0",
                                           "0", "0", "0", "1"]),
     ValidationError, "(1|1): u_base_change: matrix is singular"),
    # the rest keep the messages the loader gave before it kept each entry's
    # integer image; first, bad literals met after earlier entries have
    # filled the literal tables
    (lambda recs: _with_literal(recs, "(19|0)", "alpha", (7,), "3*q"), CatalogParseError,
     "(19|0).alpha[7]: bad character at 2 in scalar literal '3*q'"),
    (lambda recs: _with_literal(recs, "(16|1)", "gamma", (3,), "2^"), CatalogParseError,
     "(16|1).gamma[3]: exponent must be an integer in scalar literal '2^'"),
    (lambda recs: _with_literal(recs, "(17|0)", "alpha", (63,), "1/0"), CatalogParseError,
     "(17|0).alpha[63]: inverse of 0 in Q(z)"),
    (_ubc_entry(6, "q"), CatalogParseError, "(1|1).u_base_change: bad character at 0 in scalar literal 'q'"),
    # JSON numbers and lists where a literal belongs
    (lambda recs: _with_literal(recs, "(2|0)", "alpha", (3,), 0), CatalogParseError,
     "(2|0).alpha[3]: scalar literal must be a string, got int"),
    (lambda recs: _with_literal(recs, "(19|0)", "gamma", (15,), 1.0), CatalogParseError,
     "(19|0).gamma[15]: scalar literal must be a string, got float"),
    (lambda recs: _with_literal(recs, "(16|0)", "alpha", (5,), ["1"]), CatalogParseError,
     "(16|0).alpha[5]: scalar literal must be a string, got list"),
    (_ubc_entry(6, 0), CatalogParseError, "(1|1).u_base_change: scalar literal must be a string, got int"),
    # literals outside the entry's field
    (lambda recs: _with_literal(recs, "(18;l|1)", "alpha", (9,), "t"), ValidationError,
     "(18;l|1).alpha[9]: literal 't' does not lie in Q(z)(l)"),
    (lambda recs: _with_literal(recs, "(13|1)", "gamma", (4,), "z*l"), ValidationError,
     "(13|1).gamma[4]: literal 'z*l' does not lie in Q(z)"),
    (_ubc_entry(6, "l"), ValidationError, "(1|1).u_base_change: literal 'l' does not lie in Q(z)"),
    # alpha or gamma of the wrong length
    (_resized("(14|1)", "alpha", -1), CatalogParseError, "(14|1): alpha must hold 64 literals"),
    (_resized("(18;l|2)", "alpha", 1), CatalogParseError, "(18;l|2): alpha must hold 64 literals"),
    (_resized("(3|2)", "gamma", -1), CatalogParseError, "(3|2): gamma must hold 16 literals"),
    (_resized("(19|0)", "gamma", 1), CatalogParseError, "(19|0): gamma must hold 16 literals"),
    # equations checked on a kept image of degree 0 or 1, and on none (1/2, z)
    (lambda recs: _with_literal(recs, "(7|2)", "gamma", (5,), "-1"), ValidationError,
     "(7|2): structure constants violate the defining equations: (5): 2 violations"),
    (lambda recs: _with_literal(recs, "(12|0)", "alpha", (17,), "2"), ValidationError,
     "(12|0): structure constants violate the defining equations: (1): 1 violations, (3): 3 violations"),
    (lambda recs: _with_literal(recs, "(18;l|2)", "alpha", (22,), "2*l"), ValidationError,
     "(18;l|2): structure constants violate the defining equations: (3): 3 violations, (5): 1 violations"),
    (lambda recs: _with_literal(recs, "(10|1)", "alpha", (30,), "1/2"), ValidationError,
     "(10|1): structure constants violate the defining equations: (3): 4 violations"),
    (lambda recs: _with_literal(recs, "(10|1)", "alpha", (30,), "z"), ValidationError,
     "(10|1): structure constants violate the defining equations: (3): 4 violations"),
    # a family literal with l in its denominator has no int image: e_0 e_1 =
    # (1/l) e_1 breaks the unit, and so does gamma[0][0] = 1/l the involution
    (lambda recs: _with_literal(recs, "(18;l|1)", "alpha", (17,), "1/l"), ValidationError,
     "(18;l|1): structure constants violate the defining equations: (1): 1 violations, (3): 3 violations"),
    (lambda recs: _with_literal(recs, "(18;l|2)", "gamma", (0,), "1/l"), ValidationError,
     "(18;l|2): structure constants violate the defining equations: (4): 1 violations, (5): 7 violations, "
     "(6): 1 violations"),
]


@pytest.mark.parametrize("label, index, literal, kept", [
    ("(18;l|0)", 57, "(l^2+l)/(l+1)", True),  # l itself: the entry and its image are unchanged
    ("(18;l|0)", 57, "1/l", False),  # l -> 1/l (or l/(l+1), 2/l) is still a family member,
    ("(18;l|2)", 30, "l/(l+1)", False),  # checked and ranked over Q(z)(l), with no image
    ("(18;l|1)", 57, "2/l", False),
])
def test_family_literals_with_a_denominator_in_l(tmp_path, catalog, label, index, literal, kept):
    from superdegen.invariants import stabilizer_dim
    from superdegen.structure import _image, check_axioms
    entry = load_catalog(_write_catalog(tmp_path, _with_literal(_records(), label, "alpha", (index,), literal))).entry(label)
    sc, ref = entry.sc, catalog.entry(label).sc
    assert (sc.alpha == ref.alpha) is kept
    assert (_image(sc) == ref.image) is kept and (_image(sc) is None) is not kept
    assert not any(check_axioms(sc).values())
    for graded in (True, False):
        assert stabilizer_dim(sc, graded) == stabilizer_dim(ref, graded)


@pytest.mark.parametrize("mutate, kind, message", _MALFORMED)
def test_malformed_records_are_typed_errors_naming_the_entry(tmp_path, capsys, mutate, kind, message):
    from superdegen.cli import main
    path = _write_catalog(tmp_path, mutate(_records()))
    with pytest.raises(kind) as info:
        load_catalog(path)
    assert str(info.value) == message
    assert main(["--catalog", path, "tables", "--kind", "stab"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["--catalog", path, "verify-catalog"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["FAIL", "load", *message.split()]
