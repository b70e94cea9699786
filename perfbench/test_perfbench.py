"""The benchmark's own tests: every correctness check accepts the program's
real output and rejects a deliberately corrupted copy of it; the traced
run reaches names bound by `from ... import`; inputs follow the seed.

Run from the repository root with the program on the path:
    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import inputs
from reference import CERT_SETS, ERRATUM

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _cli(*argv):
    from superdegen.cli import main
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return {"exit_code": code, "stdout": out.getvalue(), "error": None}


@pytest.fixture(scope="module")
def records():
    out = {}
    for name in CERT_SETS:
        data = json.loads((SRC / "superdegen" / "data" / f"{name}.json").read_text("utf-8"))
        out[name] = data["certs"]
    return out


@pytest.fixture(scope="module")
def outputs():
    return {
        "stab": _cli("tables", "--kind", "stab"),
        "orbit": _cli("tables", "--kind", "orbit"),
        "obstructions_dim2": _cli("--json", "check", "obstructions_dim2"),
        "diagram": _cli("--json", "diagram", "--component", "2", "--format", "json"),
    }


# ------------------------------------------------------------------ atlas


@pytest.mark.parametrize("kind", ["stab", "orbit"])
def test_table_check(outputs, kind):
    text = outputs[kind]["stdout"]
    assert checks.check_table(kind, text) == []
    assert checks.check_table("orbit" if kind == "stab" else "stab", text)  # orbit = 12 - stab
    row = next(line for line in text.splitlines() if line.lstrip().startswith("(10|.)"))
    value = row[15:20]
    wrong = f"{int(value) + 1:>5}"
    assert checks.check_table(kind, text.replace(row, row[:15] + wrong + row[20:]))
    assert checks.check_table(kind, text.replace(row, row[:15] + f"{value.strip() + '!':>5}" + row[20:]))
    assert checks.check_table(kind, text.replace(row + "\n", ""))


def test_cert_report_check(outputs, records):
    name = "obstructions_dim2"
    report = checks.json_documents(outputs[name]["stdout"])[-1]
    assert checks.check_cert_report(name, report, records[name]) == []
    for i, status in ((0, "fail"), (0, "undetermined")):
        bad = copy.deepcopy(report)
        bad["items"][i]["status"] = status
        assert checks.check_cert_report(name, bad, records[name])
    erratum = next(i for i, r in enumerate(records[name]) if (r["source"], r["target"]) == ERRATUM)
    bad = copy.deepcopy(report)
    bad["items"][erratum]["status"] = "pass"
    assert checks.check_cert_report(name, bad, records[name])
    bad = copy.deepcopy(report)
    del bad["items"][-1]
    assert checks.check_cert_report(name, bad, records[name])
    bad = copy.deepcopy(report)
    bad["items"][0], bad["items"][1] = bad["items"][1], bad["items"][0]
    assert checks.check_cert_report(name, bad, records[name])


def test_od_records_follow_the_table(records):
    name = "obstructions_dim2"
    recs = copy.deepcopy(records[name])
    od = next(r for r in recs if r["method"] == "OD" and r.get("expected", "verified") == "verified")
    od["expected"] = "not_verified"
    report = {"items": [{"name": f"{r['source']} -/-> {r['target']}",
                         "status": "pass" if r.get("expected", "verified") == "verified" else "undetermined"}
                        for r in recs]}
    assert checks.check_cert_report(name, report, recs)


def test_erratum_check(records):
    assert checks.check_erratum(records) == []
    bad = copy.deepcopy(records)
    rec = next(r for r in bad["obstructions_dim2"] if (r["source"], r["target"]) == ERRATUM)
    rec["target"] = "(11|2)"
    assert checks.check_erratum(bad)
    bad = copy.deepcopy(records)
    bad["obstructions_dim3"][0]["expected"] = "not_verified"
    assert checks.check_erratum(bad)


def test_diagram_check(outputs):
    doc = checks.json_documents(outputs["diagram"]["stdout"])[0]
    assert checks.check_diagram(doc) == []
    bad = copy.deepcopy(doc)
    bad["sources"].remove("(10|1)")
    assert checks.check_diagram(bad)
    bad = copy.deepcopy(doc)
    bad["undetermined"].append({"source": "(10|1)", "target": "(11|3)"})
    assert checks.check_diagram(bad)
    bad = copy.deepcopy(doc)
    bad["nodes"][0]["orbit_dim"] += 1
    assert checks.check_diagram(bad)


def test_command_check(outputs, records):
    argv = ["--json", "diagram", "--component", "2", "--format", "json"]
    good = outputs["diagram"]
    assert checks.check_command(argv, good, records) == []
    assert checks.check_command(argv, dict(good, exit_code=1), records)
    assert checks.check_command(argv, dict(good, stdout=good["stdout"][:100]), records)
    assert checks.report_items(["tables", "--kind", "stab"], outputs["stab"]["stdout"]) == 19


# ------------------------------------------------------------------ fuzz


@pytest.fixture(scope="module")
def moved_point():
    import superdegen
    from superdegen.linalg import Matrix
    import random
    catalog = superdegen.load_catalog()
    label = "(11|3)"
    sc = catalog.get(label)
    g = inputs.group_element(random.Random(7), 0.5, 0.5)
    m = Matrix.from_rows([[sc.field.lift(v) for v in row] for row in g], sc.field)
    return label, sc, superdegen.transport(m, sc)


def test_equation_check(moved_point):
    from superdegen.structure import StructureConstants
    _, _, moved = moved_point
    assert checks.equation_violations(moved) == 0
    alpha = [[list(row) for row in plane] for plane in moved.alpha]
    alpha[1][2][3] = alpha[1][2][3] + 1
    assert checks.equation_violations(StructureConstants(moved.n, alpha, moved.gamma, moved.field)) > 0
    gamma = [list(row) for row in moved.gamma]
    gamma[1][1] = gamma[1][1] + 1
    assert checks.equation_violations(StructureConstants(moved.n, moved.alpha, gamma, moved.field)) > 0


def test_point_check(moved_point):
    import dataclasses
    import superdegen
    label, sc, moved = moved_point
    rec = {"label": label, "entry": dataclasses.asdict(superdegen.fingerprint(sc)),
           "moved": dataclasses.asdict(superdegen.fingerprint(moved)), "algebra_agrees": True,
           "equation_violations": 0}
    assert checks.check_point(rec) == []
    assert checks.check_point(dict(rec, equation_violations=3))
    assert checks.check_point(dict(rec, algebra_agrees=False))
    assert checks.check_point(dict(rec, moved=dict(rec["moved"], flag_a=not rec["moved"]["flag_a"])))
    # a fingerprint that is invariant but disagrees with the table
    wrong = dict(rec["moved"], stab_dim=rec["moved"]["stab_dim"] + 1, orbit_dim=rec["moved"]["orbit_dim"] - 1)
    assert checks.check_point(dict(rec, entry=wrong, moved=wrong))


# ------------------------------------------------------------------ tracing and inputs


def _worker(task):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT, text=True,
                          input=json.dumps(dict(task, src=str(SRC))), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_trace_reaches_imported_names():
    # cli binds stabilizer_dim and scalars/tpoly bind pgcd by `from ... import`
    r = _worker({"kind": "cli", "argv": ["tables", "--kind", "stab"], "trace": "spans"})
    calls = r["trace"]["calls"]
    assert r["trace"]["unwrapped"] == []
    assert calls["invariants.stabilizer_dim"] == 61
    assert calls["catalog.load"] == 1 and calls["cli.tables"] == 1 and calls["polys.pgcd"] > 0
    r = _worker({"kind": "cli", "argv": ["--json", "check", "family_limits"], "trace": "counts"})
    assert r["exit_code"] == 0
    assert all(r["trace"]["calls"].get(n) for n in ("tpoly.trat_new", "scalars.lrat_new", "cyclo.mul"))


def test_inputs_follow_the_seed():
    assert inputs.fuzz_points("fuzz-fixed", 3) == inputs.fuzz_points("fuzz-fixed", 3)
    assert inputs.fuzz_points("fuzz-fixed", 3) != inputs.fuzz_points("fuzz-fixed", 4)
    assert inputs.atlas_commands(5) == inputs.atlas_commands(5)
    for p in inputs.fuzz_points("fuzz-family", 1):
        assert [row[0] for row in p["g"]] == [1, 0, 0, 0]
        assert inputs._det(p["g"]) != 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "atlas", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
