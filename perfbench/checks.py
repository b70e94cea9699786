"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct.  They compare against the classification's facts in reference.py
and against properties any correct output must have (transport invariance,
the defining equations), never against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import re

from reference import (CERT_COUNTS, COMPONENT_2_OPEN_PAIRS, COMPONENT_2_SOURCES, ERRATUM,
                       FAMILIES, GROUP_DIM, ROW_ORDER, STAB_TABLE, orbit_dim, stab_dim)

_SUMMARY = re.compile(r"^\[(?P<command>[^\]]+)\] (?P<counts>.*); exit (?P<exit>\d+)$")


# ------------------------------------------------------------ report parsing

def json_documents(text: str):
    """The JSON documents printed one after another on stdout."""
    dec = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i >= len(text):
            return docs
        doc, i = dec.raw_decode(text, i)
        docs.append(doc)


def report_items(argv, stdout: str) -> int:
    """Number of verdict lines in the run report that ends the output."""
    if "--json" in argv:
        return len(json_documents(stdout)[-1]["items"])
    m = _SUMMARY.match(stdout.rstrip("\n").splitlines()[-1])
    if m is None:
        raise ValueError("no run-report summary line")
    return sum(int(part.split()[0]) for part in m["counts"].split(", "))


def parse_table(text: str):
    """Cells of a printed dimension table: {(family, j): (value, flagged)}.
    A row is the label right-aligned in 10 columns, then four cells of one
    space and four columns each; a flagged cell ends in '!'."""
    cells = {}
    for line in text.splitlines():
        m = re.fullmatch(r"\((?P<fam>[^|]+)\|\.\)", line[:10].strip())
        if m is None:
            continue
        for j in range(4):
            cell = line[10 + 5 * j:15 + 5 * j].strip()
            if cell:
                cells[(m["fam"], j)] = (int(cell.rstrip("!")), cell.endswith("!"))
    return cells


# ------------------------------------------------------------ atlas checks

def check_table(kind: str, stdout: str):
    problems = []
    cells = parse_table(stdout)
    expected = {(f, j): (v if kind == "stab" else GROUP_DIM - v)
                for f in ROW_ORDER for j, v in enumerate(STAB_TABLE[f])}
    for key, value in expected.items():
        if key not in cells:
            problems.append(f"tables {kind}: cell {key} missing")
        elif cells[key] != (value, False):
            problems.append(f"tables {kind}: cell {key} reads {cells[key]}, the table has {value}")
    for key in cells.keys() - expected.keys():
        problems.append(f"tables {kind}: unexpected cell {key}")
    return problems


def od_applies(source: str, target: str) -> bool:
    """Whether the orbit-dimension argument rules out source -> target, from
    the typed table: a degeneration lowers the orbit dimension, strictly for a
    single orbit, possibly not for a one-parameter family."""
    d_src, d_tgt = orbit_dim(source), orbit_dim(target)
    return d_src < d_tgt if source in FAMILIES else d_src <= d_tgt


def check_cert_report(name: str, report: dict, records: list):
    """One `--json check <name>` report against the published records."""
    problems = []
    items = report.get("items", [])
    if len(records) != CERT_COUNTS[name]:
        problems.append(f"check {name}: {len(records)} records, the paper lists {CERT_COUNTS[name]}")
    if len(items) != len(records):
        return problems + [f"check {name}: {len(items)} verdicts for {len(records)} records"]
    for item, rec in zip(items, records):
        expected = rec.get("expected", "verified")
        want = "pass" if expected == "verified" else "undetermined"
        if f"{rec['source']} " not in item["name"] or f"{rec['target']}" not in item["name"]:
            problems.append(f"check {name}: item {item['name']!r} is not about "
                            f"{rec['source']} -> {rec['target']}")
        if item["status"] != want:
            problems.append(f"check {name}: {item['name']} is {item['status']}, "
                            f"recorded verdict {expected}")
        if rec.get("method") == "OD" and od_applies(rec["source"], rec["target"]) != (expected == "verified"):
            problems.append(f"check {name}: {rec['source']} -/-> {rec['target']} recorded {expected}, "
                            f"but the table gives orbit dimensions {orbit_dim(rec['source'])} -> "
                            f"{orbit_dim(rec['target'])}")
    return problems


def check_erratum(records_by_set: dict):
    """The single record not expected to verify is (10|1) -/-> (11|3), and the
    table's own orbit dimensions (11 and 10) are why."""
    odd = [(r["source"], r["target"], r.get("method"))
           for recs in records_by_set.values() for r in recs
           if r.get("expected", "verified") != "verified"]
    problems = []
    if odd != [ERRATUM + ("OD",)]:
        problems.append(f"records not expected to verify: {odd}, the paper's erratum is {ERRATUM}")
    if (orbit_dim(ERRATUM[0]), orbit_dim(ERRATUM[1])) != (11, 10) or od_applies(*ERRATUM):
        problems.append("the typed table no longer contradicts the erratum's dimension tag")
    return problems


def check_diagram(doc: dict):
    problems = []
    if doc.get("component") != 2:
        problems.append(f"diagram: component {doc.get('component')}, asked for 2")
    if sorted(doc.get("sources", [])) != sorted(COMPONENT_2_SOURCES):
        problems.append(f"diagram: sources {doc.get('sources')}, the paper has {sorted(COMPONENT_2_SOURCES)}")
    open_pairs = sorted((p["source"], p["target"]) for p in doc.get("undetermined", []))
    if open_pairs != sorted(COMPONENT_2_OPEN_PAIRS):
        problems.append(f"diagram: open pairs {open_pairs}, the paper has {sorted(COMPONENT_2_OPEN_PAIRS)}")
    for node in doc.get("nodes", []):
        if node["orbit_dim"] != orbit_dim(node["label"]):
            problems.append(f"diagram: {node['label']} has orbit dimension {node['orbit_dim']}, "
                            f"the table gives {orbit_dim(node['label'])}")
    return problems


def check_command(argv, result: dict, records_by_set: dict):
    """All checks that apply to one atlas command's result."""
    if result.get("error"):
        return []  # counted as a failed operation, not judged here
    problems = []
    if result["exit_code"] != 0:
        problems.append(f"{' '.join(argv)}: exit code {result['exit_code']}")
    out = result["stdout"]
    try:
        if argv[-3:-1] == ["tables", "--kind"]:
            problems += check_table(argv[-1], out)
        elif "check" in argv:
            name = argv[-1]
            problems += check_cert_report(name, json_documents(out)[-1], records_by_set[name])
        elif "diagram" in argv:
            problems += check_diagram(json_documents(out)[0])
        report_items(argv, out)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"{' '.join(argv)}: unreadable output ({exc!r})")
    return problems


# ------------------------------------------------------------ fuzz checks

def equation_violations(sc) -> int:
    """Number of violated defining equations of a point, evaluated here and
    not by the program's own validator.  alpha[i][j][k] is the coefficient of
    e_k in e_i e_j; column c of gamma is the image of e_c under the involution."""
    n, a, g = sc.n, sc.alpha, sc.gamma
    zero, one = sc.field.zero, sc.field.one

    def ne(x, y):
        return not (x - y).is_zero()

    def delta(i, j):
        return one if i == j else zero

    bad = 0
    for i in range(n):
        for k in range(n):
            bad += ne(a[0][i][k], delta(i, k)) + ne(a[i][0][k], delta(i, k))
            bad += ne(sum((g[k][j] * g[j][i] for j in range(n)), zero), delta(k, i))
        bad += ne(g[i][0], delta(i, 0))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    lhs = sum((a[i][j][l] * a[l][k][m] for l in range(n)), zero)
                    rhs = sum((a[i][l][m] * a[j][k][l] for l in range(n)), zero)
                    bad += ne(lhs, rhs)
            for m in range(n):
                lhs = sum((a[i][j][k] * g[m][k] for k in range(n)), zero)
                rhs = sum((g[k][i] * g[l][j] * a[k][l][m] for k in range(n) for l in range(n)), zero)
                bad += ne(lhs, rhs)
    return bad


def check_point(rec: dict):
    """One transported point: rec holds the entry's and the moved point's
    fingerprints, the independent equation count, and whether the algebra-only
    transport agreed."""
    label = rec["label"]
    problems = []
    if rec["equation_violations"]:
        problems.append(f"{label}: moved point violates {rec['equation_violations']} defining equations")
    if rec["moved"] != rec["entry"]:
        problems.append(f"{label}: fingerprint changed under transport: {rec['entry']} -> {rec['moved']}")
    if rec["moved"].get("stab_dim") != stab_dim(label):
        problems.append(f"{label}: stab_dim {rec['moved'].get('stab_dim')}, the table has {stab_dim(label)}")
    if rec["moved"].get("orbit_dim") != orbit_dim(label):
        problems.append(f"{label}: orbit_dim {rec['moved'].get('orbit_dim')}, the table has {orbit_dim(label)}")
    if not rec["algebra_agrees"]:
        problems.append(f"{label}: transport_algebra disagrees with transport")
    return problems

