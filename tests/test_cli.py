import importlib.resources
import json
import platform

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from superdegen.cli import main

from helpers import DIM2_CERT, DIM2_ENTRIES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_verify_catalog(capsys):
    code, out = run(capsys, "verify-catalog")
    assert code == 0
    assert "coincidence" in out


def test_tables_stab(capsys):
    code, out = run(capsys, "tables", "--kind", "stab")
    assert code == 0
    lines = out.splitlines()
    row9 = next(l for l in lines if l.lstrip().startswith("(9|.)"))
    assert row9.split()[1:] == ["9", "5", "5", "9"]
    row18 = next(l for l in lines if l.lstrip().startswith("(18;l|.)"))
    assert row18.split()[1:] == ["4", "3", "2"]


def test_tables_orbit(capsys):
    code, out = run(capsys, "tables", "--kind", "orbit")
    assert code == 0
    lines = out.splitlines()
    row18 = next(l for l in lines if l.lstrip().startswith("(18;l|.)"))
    assert row18.split()[1:] == ["8", "9", "10"]
    row1 = next(l for l in lines if l.lstrip().startswith("(1|.)"))
    assert row1.split()[1:] == ["12", "12", "12"]


def test_check_shipped_files(capsys):
    code, out = run(capsys, "check", "spec_dim3", "obstructions_dim2")
    assert code == 0
    assert out.count("PASS") >= 17


def test_check_bad_label(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"certs": [{
        "kind": "obstruction", "source": "(8|1)", "target": "(8|99)", "method": "OD"}]}))
    code, out = run(capsys, "check", str(bad))
    assert code == 1
    assert "FAIL" in out


def test_check_underlying_is_unsupported(tmp_path, capsys):
    # no algebra-level table can be supplied, so the record is unsupported,
    # which does not fail the run
    path = tmp_path / "underlying.json"
    path.write_text(json.dumps({"certs": [{
        "kind": "obstruction", "source": "(1|1)", "target": "(13|1)", "method": "UNDERLYING"}]}))
    code, out = run(capsys, "check", str(path))
    assert code == 0
    assert out == (f" UNSUPPORTED  {path}: (1|1) -/-> (13|1) (UNDERLYING)  unsupported[underlying]: "
                   "no external algebra-degeneration table supplied\n[check] 1 unsupported; exit 0\n")


# one record each, (record, its description, its verdict): a verdict no
# shipped file reaches, and the pole of 1/(l-2) at l := 2
_ONE_RECORD_VERDICTS = [
    ({"kind": "specialization", "source": "(9|1)", "target": "(9|2)"}, "(9|1) -> (9|2)",
     "limit-mismatch]: involution constants differ at t = 0"),
    ({"kind": "obstruction", "source": "(9|1)", "target": "(9|2)", "method": "XYZ"}, "(9|1) -/-> (9|2) (XYZ)",
     "method]: unknown method 'XYZ'"),
    ({"kind": "obstruction", "source": "(9|1)", "target": "(16|1)", "method": "OD"}, "(9|1) -/-> (16|1) (OD)",
     "component]: methods other than DIM0 compare within one component"),
    ({"kind": "obstruction", "source": "(9|1)", "target": "(9|1)", "method": "OD"}, "(9|1) -/-> (9|1) (OD)",
     "orbit-dim]: trivial pair"),
    ({"kind": "family_limit", "source": "(9|1)", "target": "(9|2)", "lambda": "t"}, "(9|1) ~> (9|2)",
     "substitution]: (9|1) is not a family"),
    ({"kind": "specialization", "source": "(9|1)", "target": "(9|2)",
      "curve": ["1", "0", "0", "0", "1", "t", "0", "0", "0", "0", "t", "0", "0", "0", "0", "t"]}, "(9|1) -> (9|2)",
     "curve]: curve must fix the unit (first column e_1)"),
    ({"kind": "family_limit", "source": "(18;l|1)", "target": "(16|1)", "lambda": "2",
      "pre_change": ["1", "0", "0", "0", "0", "1/(l-2)", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1"],
      "curve": ["1", "0", "0", "0", "0", "t", "0", "0", "0", "0", "t", "0", "0", "0", "0", "t"]}, "(18;l|1) ~> (16|1)",
     "substitution]: (1)/(-2+l) has a pole at l = 2"),
]


@pytest.mark.parametrize("record, name, verdict", _ONE_RECORD_VERDICTS,
                         ids=("mismatch", "method", "component", "orbit-dim", "not-a-family", "curve", "pole"))
def test_one_record_verdicts(tmp_path, capsys, record, name, verdict):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"certs": [record]}))
    assert run(capsys, "check", str(path)) == (
        1, f"        FAIL  {path}: {name}  not_verified[{verdict}\n[check] 1 fail; exit 1\n")


def _catalog_with(tmp_path, label, diagonal=None):
    """The shipped catalog, written to tmp_path, with the entry label moved
    by diag(1, *diagonal) and written with str(), or deleted when diagonal is
    None; returns the file's path and the entry's record."""
    from superdegen.catalog import load_catalog
    from superdegen.linalg import Matrix
    from superdegen.structure import transport
    records = json.loads(importlib.resources.files("superdegen.data").joinpath("catalog.json").read_text("utf-8"))
    rec = next(r for r in records["entries"] if r["label"] == label)
    if diagonal is None:
        records["entries"].remove(rec)
    else:
        sc = load_catalog().get(label)
        diag = [1, *diagonal]
        moved = transport(Matrix.from_rows([[diag[r] if r == c else 0 for c in range(4)] for r in range(4)],
                                           sc.field), sc)
        rec["alpha"] = [str(moved.alpha[i][j][k]) for k in range(4) for i in range(4) for j in range(4)]
        rec["gamma"] = [str(x) for row in moved.gamma for x in row]
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(records))
    return str(path), rec


def _dim2_files(tmp_path, entries):
    """A catalog of the given entries and a file holding DIM2_CERT, written to tmp_path."""
    catalog, certs = tmp_path / "dim2.json", tmp_path / "cert2.json"
    catalog.write_text(json.dumps({"entries": entries}))
    certs.write_text(json.dumps({"certs": [DIM2_CERT]}))
    return str(catalog), str(certs)


def test_check_reads_certificates_at_the_catalog_dimension(tmp_path, capsys):
    catalog, certs = _dim2_files(tmp_path, DIM2_ENTRIES)
    code, out = run(capsys, "--catalog", catalog, "check", certs)
    assert (code, out) == (0, f"        PASS  {certs}: (kxk|1) -> (dual|1)  Verified\n[check] 1 pass; exit 0\n")
    # the packaged files hold 4-dimensional data
    code, out = run(capsys, "--catalog", catalog, "check", "spec_dim2")
    assert code == 2 and "cannot load: record 0: field 'pre_change': needs 4 literals, got 16" in out
    # diagram reads the packaged files as 4-dimensional data whatever the catalog
    assert main(["--catalog", catalog, "diagram", "--component", "1"]) == 2
    assert capsys.readouterr().err == "error: (1|1) -> (2|1): not_verified[labels]: no catalog entry '(1|1)'\n"


def test_check_needs_one_catalog_dimension(tmp_path, capsys):
    shipped = json.loads(importlib.resources.files("superdegen.data").joinpath("catalog.json").read_text("utf-8"))
    for entries, message in ((DIM2_ENTRIES + shipped["entries"][:1], "catalog mixes dimensions [2, 4]"),
                             ([], "catalog holds no entries")):
        catalog, certs = _dim2_files(tmp_path, entries)
        assert main(["--catalog", catalog, "check", certs]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: {message}\n")


def _pole_catalog(tmp_path):
    """The shipped catalog with (18;l|2) moved by diag(1, 1/(l-2), 1/(l-2), 1/(l-2)),
    written with str(): its constants (1)/(-2+l) and (l)/(-2+l) have a pole at l = 2."""
    from superdegen.scalars import LAMBDA
    d = 1 / (LAMBDA - 2)
    path, rec = _catalog_with(tmp_path, "(18;l|2)", [d, d, d])
    assert {"(1)/(-2+l)", "(l)/(-2+l)"} <= set(rec["alpha"])
    return path


def test_verify_catalog_reports_a_pole_at_a_spot_value(tmp_path, capsys):
    # the moved entry also fails the entrywise coincidence at 0 and its
    # recorded base change, which were made for the shipped basis
    code, out = run(capsys, "--catalog", _pole_catalog(tmp_path), "verify-catalog")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line or line.startswith("[")] == [
        "        FAIL  (18;l|2)                             spot substitution failed: "
        "family parameter 2 is excluded for (18;l|2): (1)/(-2+l) has a pole at l = 2",
        "        FAIL  coincidence (18;l|2) at 0 vs (16|3)  entrywise",
        "        FAIL  alpha blocks vs family references    (18;l|2)",
        "[verify-catalog] 3 fail, 66 pass; exit 1",
    ]


def _pole_at_zero_catalog(tmp_path):
    """(18;l|0) moved by diag(1, 1/l, 1/l, 1/l): a pole at l = 0, the value
    of its entrywise coincidence with (16|0)."""
    from superdegen.scalars import LAMBDA
    d = 1 / LAMBDA
    return _catalog_with(tmp_path, "(18;l|0)", [d, d, d])[0]


@pytest.mark.parametrize("edit, failures", [
    (_pole_at_zero_catalog, [
        "        FAIL  coincidence (18;l|0) at 0 vs (16|0)  "
        "family parameter 0 is excluded for (18;l|0): (1)/(l) has a pole at l = 0",
        # (18;l|0) is the recorded reference of the other two families
        "        FAIL  alpha blocks vs family references    (18;l|1), (18;l|2)",
        "[verify-catalog] 2 fail, 67 pass; exit 1"]),
    (lambda tmp_path: _catalog_with(tmp_path, "(16|0)")[0], [
        "        FAIL  coincidence (18;l|0) at 0 vs (16|0)  no catalog entry '(16|0)'",
        "[verify-catalog] 1 fail, 67 pass; exit 1"]),
], ids=("pole-at-0", "no-(16|0)"))
def test_verify_catalog_keeps_its_report_when_a_coincidence_pair_cannot_be_formed(tmp_path, capsys, edit,
                                                                                  failures):
    code, out = run(capsys, "--catalog", edit(tmp_path), "verify-catalog")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line or line.startswith("[")] == failures


@pytest.mark.parametrize("edit, message", [
    (("(7|1)", [2, 1, 1]), "(2|2) -> (7|1): not_verified[limit-mismatch]: alpha[2][2][3]: limit 2 vs target 8"),
    (("(16|0)",), "(16|0) -/-> (16|1) (DIM0): not_verified[labels]: no catalog entry '(16|0)'"),
], ids=("(7|1)-moved", "no-(16|0)"))
@pytest.mark.parametrize("command", [("diagram", "--component", "3", "--format", "json"),
                                     ("generic", "--component", "3")], ids=("diagram", "generic"))
def test_catalog_failing_a_shipped_certificate_is_a_typed_error(tmp_path, capsys, edit, message, command):
    code = main(["--catalog", _catalog_with(tmp_path, *edit)[0], *command])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def test_contradicting_certificates_are_a_typed_error(capsys, monkeypatch):
    from superdegen import cli
    from superdegen.graph import ContradictionFound

    def contradiction(catalog):
        raise ContradictionFound([("(2|2)", "(7|1)", None, None)])
    monkeypatch.setattr(cli, "load_default_graph", contradiction)
    code = main(["generic", "--component", "3"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        2, "", "error: 1 pair(s) are both degeneration and obstruction: (2|2)->(7|1)\n")


def test_fingerprint_at_a_pole_is_a_typed_error(tmp_path, capsys):
    code = main(["--catalog", _pole_catalog(tmp_path), "fingerprint", "(18;l|2)", "--lambda", "2"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        2, "", "error: family parameter 2 is excluded for (18;l|2): (1)/(-2+l) has a pole at l = 2\n")


def test_family_limit_with_unknown_source_fails_only_itself(tmp_path, capsys):
    records = _shipped_records("family_limits")
    records[0]["source"] = "(18;x|1)"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"certs": records}))
    code, out = run(capsys, "check", str(bad), "obstructions_dim0")
    assert code == 1
    assert "not_verified[labels]: no catalog entry '(18;x|1)'" in out
    assert out.count("PASS") == 4 + 8


def test_diagram_json(capsys):
    code, out = run(capsys, "--json", "diagram", "--component", "2", "--format", "json")
    assert code == 0
    # the diagram document precedes the run report on stdout
    doc = out.split('{\n "command"')[0]
    data = json.loads(doc)
    assert {p["source"] for p in data["undetermined"]} <= {"(14|3)", "(15|3)", "(18;l|2)", "(1|2)", "(2|3)"}
    assert len(data["undetermined"]) == 6


def test_diagram_dot_component1(capsys, tmp_path):
    out_path = tmp_path / "c1.dot"
    code, _ = run(capsys, "diagram", "--component", "1", "--format", "dot", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert '"(9|3)"' in text
    assert "->" not in text.replace("rankdir", "")  # single node, no edges


def test_fingerprint_cmd(capsys):
    code, out = run(capsys, "fingerprint", "(16|1)")
    assert code == 0
    data = json.loads(out[: out.rindex("}") + 1])
    assert data["orbit_dim"] == 9
    assert data["j_kills_odd_right"] is True and data["j_kills_odd_left"] is False


def test_fingerprint_with_lambda(capsys):
    code, out = run(capsys, "fingerprint", "(18;l|1)", "--lambda", "5")
    assert code == 0
    assert '"orbit_dim": 9' in out


def test_generic_cmd(capsys):
    code, out = run(capsys, "generic", "--component", "3")
    assert code == 0
    assert out.count("PASS") == 6


def test_determinism_byte_identical(capsys):
    _, out1 = run(capsys, "tables", "--kind", "orbit")
    _, out2 = run(capsys, "tables", "--kind", "orbit")
    assert out1 == out2
    _, j1 = run(capsys, "--json", "check", "family_limits")
    _, j2 = run(capsys, "--json", "check", "family_limits")
    assert j1 == j2


def test_json_and_text_verdicts_agree(capsys):
    code_t, out_t = run(capsys, "check", "obstructions_dim3")
    code_j, out_j = run(capsys, "--json", "check", "obstructions_dim3")
    assert code_t == code_j == 0
    payload = json.loads(out_j)
    assert payload["exit_code"] == 0
    assert payload["counts"].get("pass") == out_t.count("PASS")


def test_tables_flag_mismatches(capsys, tmp_path):
    import importlib.resources as r
    data = json.loads(r.files("superdegen.data").joinpath("catalog.json").read_text("utf-8"))
    rec = next(e for e in data["entries"] if e["label"] == "(13|1)")
    rec["expected_stab_dim"] = 7  # wrong on purpose
    p = tmp_path / "doctored.json"
    p.write_text(json.dumps(data))
    code = main(["--catalog", str(p), "tables", "--kind", "stab"])
    out = capsys.readouterr().out
    assert code == 1
    assert "1!" in out  # computed value flagged against the doctored declaration


def test_broken_catalog_file_fails_cleanly(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("[")
    code = main(["--catalog", str(p), "verify-catalog"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_corrupted_entry_fails_naming_it(capsys, tmp_path):
    import importlib.resources as r
    data = json.loads(r.files("superdegen.data").joinpath("catalog.json").read_text("utf-8"))
    rec = next(e for e in data["entries"] if e["label"] == "(5|0)")
    idx = next(i for i, lit in enumerate(rec["alpha"]) if lit == "1" and i > 16)
    rec["alpha"][idx] = "2"
    p = tmp_path / "corrupt.json"
    p.write_text(json.dumps(data))
    code = main(["--catalog", str(p), "verify-catalog"])
    out = capsys.readouterr().out
    assert code == 1
    assert "(5|0)" in out


@pytest.mark.parametrize("value, why", [("abc", "bad character"), ("1/0", "inverse of 0")])
def test_fingerprint_bad_lambda_is_a_typed_error(capsys, value, why):
    code = main(["fingerprint", "(18;l|0)", "--lambda", value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and why in err


def test_diagram_unwritable_out_fails_before_building(capsys, tmp_path, monkeypatch):
    import superdegen.cli as cli

    def no_build(catalog):
        raise AssertionError("graph built for an unwritable output path")

    monkeypatch.setattr(cli, "load_default_graph", no_build)
    code = main(["diagram", "--component", "2", "--out", str(tmp_path / "missing" / "x.dot")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot write ")


@pytest.mark.parametrize("via", ["flag", "env"])
def test_missing_catalog_file_is_a_typed_error(capsys, tmp_path, monkeypatch, via):
    missing = str(tmp_path / "nonexistent.json")
    if via == "flag":
        argv = ["--catalog", missing, "tables", "--kind", "stab"]
    else:
        monkeypatch.setenv("SUPERDEGEN_CATALOG", missing)
        argv = ["tables", "--kind", "stab"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot read catalog ") and missing in captured.err
    assert captured.out == ""


def test_catalog_file_that_is_not_text_is_a_typed_error(capsys, tmp_path):
    p = tmp_path / "binary.json"
    p.write_bytes(b"\xff\xfe\x00[")
    code = main(["--catalog", str(p), "tables", "--kind", "stab"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "not UTF-8 text" in err


def test_timing_stamps_python_and_backend(capsys):
    _, plain = run(capsys, "check", "family_limits")
    _, timed = run(capsys, "--timing", "check", "family_limits")
    stamp = f"python {platform.python_version()}, backend python-int"
    assert timed.splitlines()[-1] == stamp
    assert "elapsed" not in plain and stamp not in plain
    _, plain_json = run(capsys, "--json", "check", "family_limits")
    _, timed_json = run(capsys, "--json", "--timing", "check", "family_limits")
    payload = json.loads(timed_json)
    assert payload["python"] == platform.python_version() and payload["backend"] == "python-int"
    assert "python" not in json.loads(plain_json) and "backend" not in json.loads(plain_json)
    assert {k: v for k, v in payload.items() if k not in ("python", "backend", "elapsed_seconds")} \
        == json.loads(plain_json)


def _shipped_records(name):
    return json.loads(importlib.resources.files("superdegen.data").joinpath(name + ".json")
                      .read_text("utf-8"))["certs"]


def _drop(key):
    return lambda rec: rec.pop(key)


def _put(key, value):
    return lambda rec: rec.__setitem__(key, value)


def _put_entry(key, index, value):
    return lambda rec: rec[key].__setitem__(index, value)


# (data set, record index, mutation, the typed message it must give)
_MALFORMED = [
    ("spec_dim2", 0, _drop("source"), "record 0: field 'source': missing"),
    ("spec_dim3", 2, _put("target", 7), "record 2: field 'target': expected string, got number"),
    ("obstructions_dim2", 4, _put("method", ["OD"]), "record 4: field 'method': expected string, got array"),
    ("spec_dim2", 0, lambda rec: rec["pre_change"].pop(), "record 0: field 'pre_change': needs 16 literals, got 15"),
    ("spec_dim2", 1, _put_entry("curve", 5, "t^2+"), "record 1: field 'curve': bad literal 't^2+'"),
    ("spec_dim2", 1, _put_entry("curve", 5, "1/t"), "record 1: field 'curve': entry '1/t' is not polynomial in t"),
    ("spec_dim3", 0, _put_entry("curve", 0, 1), "record 0: field 'curve': every entry must be a string literal"),
    ("family_limits", 3, _put("lambda", "1/0"), "record 3: field 'lambda': bad literal '1/0'"),
    ("family_limits", 0, _drop("lambda"), "record 0: family_limit certificate needs a lambda"),
    ("obstructions_dim0", 1, lambda rec: rec.clear(), "record 1: unknown certificate kind None"),
]


@pytest.mark.parametrize("name, index, mutate, message", _MALFORMED)
def test_malformed_certificate_is_a_typed_error(capsys, tmp_path, name, index, mutate, message):
    records = _shipped_records(name)
    mutate(records[index])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"certs": records}))
    code, out = run(capsys, "check", str(bad), "obstructions_dim0")
    assert code == 2
    assert f"ERROR  {bad}" in out and f"cannot load: {message}" in out
    assert out.count("PASS") == 8  # the other file is still checked
    code, out = run(capsys, "--json", "check", str(bad))
    assert code == 2 and json.loads(out)["exit_code"] == 2


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    (b"{\"certs\": [", "Expecting value"),
    (b"{\"certs\": [\"\xe9\"]}", "not UTF-8 text"),
    (b"{\"comment\": \"no certs\"}", "must hold a list of certificates"),
    (b"[7]", "record 0: expected an object, got number"),
])
def test_unreadable_certificate_file_is_a_typed_error(capsys, tmp_path, content, message):
    path = tmp_path / "certs.json"
    if content is not None:
        path.write_bytes(content)
    code, out = run(capsys, "check", "family_limits", str(path))
    assert code == 2
    assert message in out and out.count("PASS") == 5


_LITERAL_FIELDS = ("curve", "pre_change", "post_change")


@st.composite
def _mutated_records(draw):
    """A shipped certificate file with one record broken in one of the ways
    data/schema.md rules out, and the index of that record."""
    records = _shipped_records(draw(st.sampled_from(
        ("spec_dim3", "spec_dim2", "family_limits", "obstructions_dim2", "obstructions_dim0"))))
    index = draw(st.integers(0, len(records) - 1))
    rec = records[index]
    required = ["kind", "source", "target", "method" if rec["kind"] == "obstruction" else "lambda"]
    required = [k for k in required if k in rec]
    matrices = [k for k in _LITERAL_FIELDS if rec.get(k)]
    ways = ["drop", "type"] + (["length", "literal", "entry-type"] if matrices else [])
    ways += ["pole"] if "curve" in rec else []
    way = draw(st.sampled_from(ways))
    if way == "drop":
        rec.pop(draw(st.sampled_from(required)))
    elif way == "type":
        key = draw(st.sampled_from(sorted(set(required) | set(matrices) | {"expected", "note"})))
        wrong = [7, True, {"x": 1}] + ([] if key in _LITERAL_FIELDS else [["x"]])
        wrong += ["x"] if key in _LITERAL_FIELDS else []
        rec[key] = draw(st.sampled_from(wrong))
    elif way == "length":
        lits = rec[draw(st.sampled_from(matrices))]
        lits.pop() if draw(st.booleans()) else lits.append("0")
    elif way in ("literal", "entry-type"):
        lits = rec[draw(st.sampled_from(matrices))]
        bad = draw(st.sampled_from(["", "1+", "t^", "abc", "1/0", "(2"] if way == "literal" else [0, None, []]))
        lits[draw(st.integers(0, len(lits) - 1))] = bad
    else:
        rec["curve"][draw(st.integers(0, len(rec["curve"]) - 1))] = draw(st.sampled_from(["1/t", "1/(1+t)"]))
    return records, index


# capsys is read out after every run, so sharing it between examples is safe
@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_records())
def test_mutated_shipped_records_give_typed_errors(tmp_path_factory, capsys, mutated):
    records, index = mutated
    bad = tmp_path_factory.mktemp("certs") / "mutated.json"
    bad.write_text(json.dumps({"certs": records}))
    code, out = run(capsys, "check", str(bad))
    assert code == 2
    assert f"cannot load: record {index}: " in out
