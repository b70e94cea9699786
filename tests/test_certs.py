import importlib.resources
import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import superdegen.catalog as catalog_module
import superdegen.certs as certs_module
from superdegen.catalog import CLOSED_ORBIT_LABEL, load_catalog
from superdegen.certs import (NOT_VERIFIED, UNSUPPORTED, VERIFIED, CertFormatError, ObstructionCert, Outcome,
                              SpecializationCert, cert_from_record, load_cert_file,
                              scaling_cert, verify_cert, verify_obstruction,
                              verify_specialization)
from superdegen.linalg import FIELD_C8, FIELD_TRAT, Matrix
from superdegen.structure import StructureConstants, validate
from superdegen.tpoly import T_VAR


def _cert(source, target, curve_rows, pre_rows=None, post_rows=None):
    return SpecializationCert(
        source=source,
        target=target,
        pre_change=Matrix.from_rows(pre_rows, FIELD_C8) if pre_rows else None,
        curve=Matrix.from_rows(curve_rows, FIELD_TRAT),
        post_change=Matrix.from_rows(post_rows, FIELD_C8) if post_rows else None,
    )


t = T_VAR
I4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_listed_specialization_7_1_to_8_1(catalog):
    # e2' = e2, e3' = 2 e3, e4' = t e4 in the catalog basis of (7|1)
    cert = _cert("(7|1)", "(8|1)", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, t]])
    assert verify_specialization(cert, catalog).verified


def test_trivial_degeneration_identity_curve(catalog):
    for label in ("(10|1)", "(18;l|2)"):
        cert = _cert(label, label, I4)
        assert verify_specialization(cert, catalog).verified


def test_degenerate_curve_fails_first_stage(catalog):
    rows = [[1, 0, 0, 0], [0, t, 0, 0], [0, t, 0, 0], [0, 0, 0, 1]]
    cert = _cert("(7|1)", "(8|1)", rows)
    out = verify_specialization(cert, catalog)
    assert not out.verified and "generic" in out.stage


def test_pole_fails_regularity(catalog):
    # shrinking e2 of (5|1) while keeping its square makes a pole appear
    rows = [[1, 0, 0, 0], [0, t, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    cert = _cert("(5|1)", "(9|2)", rows)
    out = verify_specialization(cert, catalog)
    assert not out.verified and out.stage == "regularity"


def test_limit_mismatch_is_reported(catalog):
    cert = _cert("(7|1)", "(9|1)", [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, t]])
    out = verify_specialization(cert, catalog)
    assert not out.verified and out.stage == "limit-mismatch"


def test_scaling_certs(catalog):
    for label in ("(10|0)", "(5|1)", "(9|3)", "(18;l|0)"):
        cert = scaling_cert(label, catalog)
        expect = CLOSED_ORBIT_LABEL[catalog.entry(label).component]
        assert cert.target == expect
        if cert.source == cert.target:
            continue
        assert verify_cert(cert, catalog).verified, label


def test_family_limits_shipped(catalog):
    for cert in load_cert_file("family_limits"):
        assert verify_cert(cert, catalog).verified, cert.describe()


def test_family_limit_forbidden_constant(catalog):
    rec = {"kind": "family_limit", "source": "(18;l|1)", "target": "(16|1)", "lambda": "1"}
    out = verify_cert(cert_from_record(rec), catalog)
    assert not out.verified and out.stage == "substitution"


def test_a_pole_of_the_source_constants_is_a_substitution_verdict(catalog):
    # (18;l|2) with the constant 1/(l-2): moved by diag(1, 1/(l-2), 1/(l-2), 1/(l-2))
    from superdegen.linalg import FIELD_LRAT
    from superdegen.scalars import LAMBDA
    from superdegen.structure import transport
    d = 1 / (LAMBDA - 2)
    g = Matrix.from_rows([[(1 if r == 0 else d) if r == c else 0 for c in range(4)] for r in range(4)], FIELD_LRAT)
    src = transport(g, catalog.get("(18;l|2)"))
    rec = {"kind": "family_limit", "source": "(18;l|2)", "target": "(16|3)", "lambda": "2"}
    out = certs_module._verify(cert_from_record(rec), src, catalog.get("(16|3)"))
    assert out == Outcome(NOT_VERIFIED, "substitution", "(1)/(-2+l) has a pole at l = 2")


_PRE_LITERALS = ("0", "1", "-1", "2", "l", "1/l", "1/(l-2)", "1/(l-5)", "l-2", "(l+1)/(l-1)")


def _first_column_e1(cells):
    """The 16 row-major literals with first column e_1 and the 12 others from cells."""
    return [x for r in range(4) for x in ["1" if r == 0 else "0", *cells[3 * r:3 * r + 3]]]


_family_limit_records = st.fixed_dictionaries({
    "kind": st.just("family_limit"),
    "source": st.sampled_from(("(18;l|0)", "(18;l|1)", "(18;l|2)")),
    "target": st.sampled_from(("(16|0)", "(16|1)", "(16|3)", "(7|2)", "(7|3)")),
    "lambda": st.sampled_from(("t", "1+t", "1/t", "t^2", "2+t", "5+t", "2", "5", "1/2", "-1", "z")),
    "pre_change": st.lists(st.sampled_from(_PRE_LITERALS), min_size=12, max_size=12).map(_first_column_e1),
    "curve": st.lists(st.sampled_from(("0", "0", "1", "t", "t^2")), min_size=12, max_size=12).map(_first_column_e1),
})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_family_limit_records)
@example({"kind": "family_limit", "source": "(18;l|0)", "target": "(16|0)", "lambda": "5",
          "pre_change": _first_column_e1(["0", "0", "0", "1/(l-5)", "0", "0", "0", "1", "0", "0", "0", "1"]),
          "curve": _first_column_e1(["0", "0", "0", "t", "0", "0", "0", "t", "0", "0", "0", "t"])})
def test_family_limits_give_an_outcome_and_never_raise(catalog, rec):
    # a substitution verdict is the excluded -1 or a pre-change entry with a
    # pole at a constant lambda, as 1/(l-2) at 2: the shipped families'
    # constants are polynomials in l
    out = verify_cert(cert_from_record(rec), catalog)
    assert isinstance(out, Outcome)
    if out.stage == "substitution":
        assert rec["lambda"] == "-1" or out.detail.endswith(f"has a pole at l = {rec['lambda']}")


def test_shipped_specializations(catalog):
    for name in ("spec_dim3", "spec_dim2"):
        for cert in load_cert_file(name):
            assert verify_cert(cert, catalog).verified, cert.describe()


def test_shipped_obstructions(catalog):
    for name in ("obstructions_dim3", "obstructions_dim2", "obstructions_dim0"):
        for cert in load_cert_file(name):
            out = verify_cert(cert, catalog)
            assert out.status == cert.expected, (cert.describe(), str(out))


def test_obstruction_examples(catalog):
    assert verify_obstruction(ObstructionCert("(8|1)", "(8|2)", "OD"), catalog).verified
    assert verify_obstruction(ObstructionCert("(3|3)", "(3|2)", "C"), catalog).verified
    # (1|1) -> (2|1) exists, so the dimension method must NOT verify
    out = verify_obstruction(ObstructionCert("(1|1)", "(2|1)", "OD"), catalog)
    assert out.status == NOT_VERIFIED
    out = verify_obstruction(ObstructionCert("(9|1)", "(9|2)", "DIM0"), catalog)
    assert out.verified
    out = verify_obstruction(ObstructionCert("(7|2)", "(7|3)", "DIM0"), catalog)
    assert out.status == NOT_VERIFIED


def test_closed_set_outcomes_keep_their_detail_strings(catalog):
    # C..E off the component with a 2-dimensional even part ((1|1), (2|1):
    # component 3), and pairs that a set does or does not separate
    for m in ("C", "D", "E"):
        assert verify_obstruction(ObstructionCert("(1|1)", "(2|1)", m), catalog) == Outcome(
            NOT_VERIFIED, "closed-set", f"set ({m}) is defined on the component with a 2-dimensional even part")
    assert verify_obstruction(ObstructionCert("(16|1)", "(16|3)", "D"), catalog) == Outcome(
        NOT_VERIFIED, "closed-set", "set (D) contains source=False, target=True; no separation")
    assert verify_obstruction(ObstructionCert("(9|2)", "(3|2)", "A"), catalog) == Outcome(
        NOT_VERIFIED, "closed-set", "set (A) contains source=True, target=True; no separation")
    assert verify_obstruction(ObstructionCert("(16|3)", "(16|1)", "D"), catalog) == Outcome(VERIFIED)


def test_closed_set_table_error_is_the_detail(monkeypatch):
    def broken(sc, split=None):
        raise ValueError("the even part is not closed under multiplication")
    monkeypatch.setattr(catalog_module, "closed_set_member", broken)
    fresh = load_catalog()
    for m in ("A", "C"):
        assert verify_obstruction(ObstructionCert("(16|3)", "(16|1)", m), fresh) == Outcome(
            NOT_VERIFIED, "closed-set", "the even part is not closed under multiplication")
    assert verify_obstruction(ObstructionCert("(16|3)", "(16|1)", "OD"), fresh).status == NOT_VERIFIED


def test_underlying_requires_table(catalog):
    cert = ObstructionCert("(1|1)", "(13|1)", "UNDERLYING")
    assert verify_obstruction(cert, catalog).status == UNSUPPORTED


def test_unknown_label(catalog):
    out = verify_cert(ObstructionCert("(8|1)", "(8|99)", "OD"), catalog)
    assert out.status == NOT_VERIFIED and out.stage == "labels"
    cert = _cert("(7|1)", "(8|99)", I4)
    assert verify_cert(cert, catalog).stage == "labels"


def test_erratum_pair_has_a_genuine_specialization(catalog):
    # The claimed dimension obstruction between these two orbits is refuted
    # mechanically: this homogeneous curve realizes the degeneration, which is
    # why the shipped obstruction record carries a non-verified verdict.
    rec = {"kind": "specialization", "source": "(10|1)", "target": "(11|3)",
           "pre_change": ["1", "1", "0", "0", "0", "-2", "0", "0",
                          "0", "0", "1", "-1", "0", "0", "1", "1"],
           "curve": ["1", "0", "0", "0", "0", "t", "0", "0",
                     "0", "0", "1", "0", "0", "0", "0", "t"]}
    assert verify_cert(cert_from_record(rec), catalog).verified


def test_certs_against_a_two_dimensional_catalog_file(tmp_path):
    # the loader and the engine are dimension-generic: a small catalog of
    # 2-dimensional structures supports label-resolved certificates
    import json as _json

    from superdegen.catalog import load_catalog

    def rec(label, alpha_lits, gamma_lits, component):
        return {"label": label, "n": 2, "component": component, "parametric": False,
                "alpha": alpha_lits, "gamma": gamma_lits,
                "expected_stab_dim": 0, "expected_orbit_dim": 2}

    # k-major alpha for n=2: [a^1_11, a^1_12, a^1_21, a^1_22, a^2_11, a^2_12, a^2_21, a^2_22]
    split_pair = rec("(kxk|1)", ["1", "0", "0", "1", "0", "1", "1", "0"], ["1", "0", "0", "-1"], 1)
    dual = rec("(dual|1)", ["1", "0", "0", "0", "0", "1", "1", "0"], ["1", "0", "0", "-1"], 1)
    p = tmp_path / "dim2.json"
    p.write_text(_json.dumps({"entries": [split_pair, dual]}))
    cat2 = load_catalog(str(p))
    rec2 = {"kind": "specialization", "source": "(kxk|1)", "target": "(dual|1)",
            "curve": ["1", "t", "0", "t"]}
    assert verify_cert(cert_from_record(rec2, n=2), cat2).verified


def test_nonhomogeneous_dimension2_vector():
    # 2-dimensional check that the engine does not assume homogeneous curves:
    # the split pair of field factors, oddly graded, specializes onto the dual
    # numbers with an odd generator via e2' = t e1 + t e2.
    f = FIELD_C8
    source = validate(StructureConstants(
        2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[1, 0], [0, -1]], f))
    target = validate(StructureConstants(
        2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [[1, 0], [0, -1]], f))
    curve = Matrix.from_rows([[1, t], [0, t]], FIELD_TRAT)
    cert = SpecializationCert(source="src", target="tgt", pre_change=None,
                              curve=curve, post_change=None)
    out = certs_module._verify(cert, source, target)
    assert out.verified


def test_pole_with_an_l_dependent_pre_change_is_reported_in_time(catalog):
    # reducing this pole's detail string ran the Euclidean gcd over
    # Q(z)(l)[t] for more than 40 s; the specialisation test in pgcd ends it
    rec = {"kind": "specialization", "source": "(18;l|2)", "target": "(16|1)",
           "pre_change": ["1", "0", "0", "0", "0", "l", "1+l", "z", "0", "1/(1-l)", "1", "l", "0", "z", "0", "1+l"],
           "curve": ["1", "0", "0", "0", "0", "1+t+2*t^2", "t-t^2", "3*t+t^2", "0", "2*t+t^2", "1-t+t^2", "t^2",
                     "0", "t+3*t^2", "2+t", "t-2*t^2"]}
    start = time.perf_counter()
    out = verify_cert(cert_from_record(rec), catalog)
    assert time.perf_counter() - start < 2
    assert out.stage == "regularity" and out.detail.startswith("alpha[2][2][4] = ")


# --------------------------------------- one parse per distinct literal and file

def _shipped(name):
    return json.loads(importlib.resources.files("superdegen.data").joinpath(name + ".json")
                      .read_text("utf-8"))["certs"]


def test_each_distinct_literal_is_parsed_once_per_file(monkeypatch):
    calls = []
    real = certs_module.parse_scalar
    monkeypatch.setattr(certs_module, "parse_scalar", lambda text: calls.append(text) or real(text))
    for name in certs_module.PACKAGED_CERT_FILES:
        wanted = {lit for rec in _shipped(name) for key in ("pre_change", "curve", "post_change")
                  for lit in rec.get(key) or []}
        wanted |= {rec["lambda"] for rec in _shipped(name) if rec.get("lambda")}
        first = load_cert_file(name)
        assert sorted(calls) == sorted(wanted), name
        # a second load parses them again: the dict lives for one load
        assert [str(c) for c in load_cert_file(name)] == [str(c) for c in first]
        assert sorted(calls) == sorted(list(wanted) * 2), name
        calls.clear()


# (file, record, field, entry or None, bad literal, message): each bad literal
# follows good duplicates of the literals around it, in its own record and in
# the records before it; the messages are those of a parse per literal
_AFTER_GOOD_DUPLICATES = [
    ("spec_dim2", 1, "curve", 5, "q", "record 1: field 'curve': bad literal 'q': bad character at 0 in scalar literal 'q'"),
    ("spec_dim2", 1, "pre_change", 15, "q",
     "record 1: field 'pre_change': bad literal 'q': bad character at 0 in scalar literal 'q'"),
    ("spec_dim3", 4, "curve", 10, "(1",
     "record 4: field 'curve': bad literal '(1': missing closing parenthesis in scalar literal '(1'"),
    ("family_limits", 3, "lambda", None, "1/0", "record 3: field 'lambda': bad literal '1/0': inverse of 0 in Q(z)"),
    # t parses, and is already in the dict from the curve of the same file
    ("spec_dim2", 0, "post_change", 5, "t", "record 0: field 'post_change': entry 't' does not lie in Q(z)"),
    ("spec_dim2", 0, "pre_change", 5, "t", "record 0: field 'pre_change': entry 't' does not lie in Q(z)"),
    ("spec_dim3", 4, "curve", 5, "1/t", "record 4: field 'curve': entry '1/t' is not polynomial in t"),
]


@pytest.mark.parametrize("name, index, key, pos, literal, message", _AFTER_GOOD_DUPLICATES)
def test_a_bad_literal_after_good_duplicates_keeps_its_message(tmp_path, name, index, key, pos, literal, message):
    records = _shipped(name)
    earlier = [lit for rec in records[:index] for k in ("pre_change", "curve", "post_change")
               for lit in rec.get(k) or []]
    if pos is None:
        records[index][key] = literal
    else:
        earlier += records[index][key][:pos]
        records[index][key][pos] = literal
    assert len(set(earlier)) < len(earlier)  # the dict has served a duplicate before the bad literal
    path = tmp_path / "certs.json"
    path.write_text(json.dumps({"certs": records}))
    with pytest.raises(CertFormatError) as info:
        load_cert_file(str(path))
    assert str(info.value) == message
