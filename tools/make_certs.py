#!/usr/bin/env python3
"""Generate the certificate data files, into src/superdegen/data/ unless
--out-dir names another directory:

    python3 tools/make_certs.py [--out-dir DIR]

Each specialization is given by the working basis (pre_change columns, in
the source's catalog basis), the t-dependent basis curve (columns, in the
working basis), and an optional constant post_change (columns, in the
target's catalog basis) identifying the arrival basis with the target's.
Every certificate is run through the verification engine before being
written; generation aborts on any unexpected verdict.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from superdegen.catalog import load_catalog
from superdegen.certs import cert_from_record, verify_cert

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "superdegen", "data")

E1 = (1, 0, 0, 0)


def mat(*cols):
    """Row-major literal matrix from four column vectors."""
    return [str(cols[c][r]) for r in range(4) for c in range(4)]


def diag(*ds):
    return mat(*[tuple(ds[r] if r == c else 0 for r in range(4)) for c in range(4)])


def spec(source, target, curve, pre=None, post=None, expected="verified", note=""):
    rec = {"kind": "specialization", "source": source, "target": target, "curve": curve}
    if pre is not None:
        rec["pre_change"] = pre
    if post is not None:
        rec["post_change"] = post
    if expected != "verified":
        rec["expected"] = expected
    if note:
        rec["note"] = note
    return rec


def fam(source, target, lam, curve=None, pre=None, note=""):
    rec = {"kind": "family_limit", "source": source, "target": target, "lambda": lam}
    rec["curve"] = curve if curve is not None else diag(1, 1, 1, 1)
    if pre is not None:
        rec["pre_change"] = pre
    if note:
        rec["note"] = note
    return rec


def obstr(source, target, method, expected="verified", note=""):
    rec = {"kind": "obstruction", "source": source, "target": target, "method": method}
    if expected != "verified":
        rec["expected"] = expected
    if note:
        rec["note"] = note
    return rec


SPEC_DIM3 = [
    spec("(1|1)", "(2|1)", diag(1, 1, 1, "t"),
         pre=mat(E1, (1, -1, -1, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         post=mat(E1, (0, 0, 1, 0), (1, -1, -1, 0), (0, 0, 0, 1))),
    spec("(1|1)", "(2|2)", diag(1, 1, "t", 1),
         pre=mat(E1, (0, 0, 1, 0), (-1, 2, 1, 0), (0, 0, 0, 1))),
    spec("(1|1)", "(4|1)", diag(1, 1, "t^2", "t")),
    spec("(2|1)", "(3|1)", diag(1, 1, "t", 1),
         pre=mat(E1, (0, 1, 1, 0), (0, 1, -1, 0), (0, 0, 0, 1))),
    spec("(2|1)", "(6|1)", diag(1, 1, "t", 1),
         pre=mat(E1, (0, 1, 0, 0), (1, -1, -2, 0), (0, 0, 0, 1))),
    spec("(2|2)", "(3|1)", diag(1, 1, 1, "t"),
         post=mat(E1, (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(2|2)", "(7|1)",
         mat(E1, (0, "(z-z^3)*t", 1, 0), (0, "t^2", 0, 0), (0, 0, 0, "(z+z^3)*t"))),
    spec("(3|1)", "(8|1)", mat(E1, (0, "t", 1, 0), (0, 0, "t", 0), (0, 0, 0, 1))),
    spec("(4|1)", "(6|1)", diag(1, 1, 1, "t")),
    spec("(4|1)", "(7|1)",
         mat(E1, (0, "t^2", 1, 0), (0, 0, "t^2", 0), (0, 0, 0, "(z+z^3)*t")),
         pre=mat(E1, (1, -2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(6|1)", "(8|1)", mat(E1, (0, "t", 1, 0), (0, 0, "2*t", 0), (0, 0, 0, 1)),
         pre=mat(E1, (1, -2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(7|1)", "(8|1)", mat(E1, (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, "t"))),
    spec("(7|1)", "(8|2)", mat(E1, (0, 0, -2, 0), (0, "t", 0, 0), (0, 0, 0, 1))),
    spec("(13|1)", "(14|2)", diag(1, 1, "t", 1),
         pre=mat(E1, (1, -1, 0, 0), (1, -1, -1, 0), (0, 0, 0, 1))),
    spec("(13|1)", "(15|2)", diag(1, 1, "t", 1),
         pre=mat(E1, (1, 0, -1, 0), (1, -1, -1, 0), (0, 0, 0, 1))),
    spec("(14|2)", "(8|1)", mat(E1, (0, "t", 1, 0), (0, 0, "2*t", 0), (0, 0, 0, 1)),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(15|2)", "(8|1)", mat(E1, (0, "t", 1, 0), (0, 0, "2*t", 0), (0, 0, 0, 1)),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
]

SPEC_DIM2 = [
    spec("(1|2)", "(2|3)", diag(1, 1, 1, "t"),
         pre=mat(E1, (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         post=mat(E1, (1, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(1|2)", "(3|3)", diag(1, "t", 1, "t"),
         pre=mat(E1, (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, 0))),
    spec("(2|3)", "(3|2)", diag(1, 1, "t", 1)),
    spec("(2|3)", "(5|1)", mat(E1, (0, "t^2", 0, 0), (0, 0, "t", 1), (0, 0, "t^3", 0))),
    spec("(3|2)", "(7|2)", diag(1, "t", 1, "t"),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(3|3)", "(5|1)", mat(E1, (0, "2*t", 0, 0), (0, 0, "t", 1), (0, 0, 0, "2*t^2"))),
    spec("(3|3)", "(7|3)", diag(1, "t", "t", 1)),
    spec("(5|1)", "(7|2)", diag(1, 1, "t", "t")),
    spec("(5|1)", "(8|3)", diag(1, "t^2", "t", 1)),
    spec("(7|3)", "(8|3)", mat(E1, (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, "t")),
         pre=mat(E1, (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(10|1)", "(11|2)", diag(1, 1, "t", "t"),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
         post=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(10|1)", "(12|2)", diag(1, "t^2", "t", "t"),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, -1), (0, 0, 1, 1))),
    spec("(11|2)", "(12|1)", diag(1, "t", 1, "t"),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(11|3)", "(12|1)", diag(1, 1, "t", "t")),
    spec("(11|3)", "(12|2)", diag(1, "t", "t", 1),
         post=mat(E1, (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    spec("(14|3)", "(16|1)", diag(1, "t", 1, "t"),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(15|3)", "(16|2)", diag(1, "t", 1, "t"),
         pre=mat(E1, (-1, 2, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(16|3)", "(8|3)", diag(1, 1, 1, "t"),
         pre=mat(E1, (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(18;l|2)", "(8|3)", mat(E1, (0, "1+l", 0, 0), (0, 0, 1, 0), (0, 0, 0, "t")),
         pre=mat(E1, (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)),
         note="per-member certificate, verified symbolically over the function field"),
    spec("(19|1)", "(8|3)", diag(1, 1, 1, "t"),
         pre=mat(E1, (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1))),
    spec("(19|1)", "(12|2)", diag(1, "t", "t", 1)),
]

FAMILY_LIMITS = [
    fam("(18;l|1)", "(7|2)", "1+t",
        note="the parameter tends to 1, where the family member coincides with the target"),
    fam("(18;l|1)", "(16|1)", "t",
        note="the parameter tends to 0"),
    fam("(18;l|1)", "(16|2)", "1/t", pre=diag(1, 1, 1, "l"),
        note="parameter 1/t in the basis closing with the reversed product"),
    fam("(18;l|2)", "(7|3)", "1+t"),
    fam("(18;l|2)", "(16|3)", "t"),
]

OBSTRUCTIONS_DIM3 = [
    obstr("(2|1)", "(2|2)", "OD"),
    obstr("(2|1)", "(4|1)", "OD"),
    obstr("(2|1)", "(7|1)", "A"),
    obstr("(2|1)", "(8|2)", "A"),
    obstr("(2|2)", "(2|1)", "OD"),
    obstr("(2|2)", "(4|1)", "OD"),
    obstr("(3|1)", "(7|1)", "OD"),
    obstr("(3|1)", "(8|2)", "A"),
    obstr("(6|1)", "(8|2)", "A"),
    obstr("(8|1)", "(8|2)", "OD"),
    obstr("(8|2)", "(8|1)", "OD"),
    obstr("(13|1)", "(8|2)", "A"),
    obstr("(13|1)", "(14|1)", "B"),
    obstr("(13|1)", "(15|1)", "B"),
    obstr("(14|1)", "(8|1)", "OD"),
    obstr("(14|1)", "(8|2)", "OD"),
    obstr("(14|1)", "(14|2)", "OD"),
    obstr("(14|2)", "(8|2)", "A"),
    obstr("(14|2)", "(14|1)", "B"),
    obstr("(15|1)", "(8|1)", "OD"),
    obstr("(15|1)", "(8|2)", "OD"),
    obstr("(15|1)", "(15|2)", "OD"),
    obstr("(15|2)", "(8|2)", "A"),
    obstr("(15|2)", "(15|1)", "B"),
]

OBSTRUCTIONS_DIM2 = [
    obstr("(2|3)", "(3|3)", "OD"),
    obstr("(3|2)", "(3|3)", "OD"),
    obstr("(3|2)", "(5|1)", "OD"),
    obstr("(3|2)", "(7|3)", "OD"),
    obstr("(3|2)", "(8|3)", "A"),
    obstr("(3|3)", "(3|2)", "C"),
    obstr("(5|1)", "(7|3)", "OD"),
    obstr("(6|2)", "(8|3)", "OD"),
    obstr("(7|2)", "(7|3)", "OD"),
    obstr("(7|2)", "(8|3)", "OD"),
    obstr("(7|3)", "(7|2)", "D"),
    obstr("(10|1)", "(11|3)", "OD", expected="not_verified",
          note="erratum in the source table of claims: the orbit dimensions are 11 -> 10, "
               "so the dimension method cannot apply; a homogeneous specialization between "
               "the two structures exists (see the repository notes), making the claimed "
               "obstruction unverifiable by any shipped method"),
    obstr("(11|2)", "(11|3)", "OD"),
    obstr("(11|2)", "(12|2)", "A"),
    obstr("(11|3)", "(11|2)", "C"),
    obstr("(12|1)", "(12|2)", "A"),
    obstr("(12|2)", "(12|1)", "OD"),
    obstr("(14|3)", "(16|3)", "OD"),
    obstr("(14|3)", "(8|3)", "A"),
    obstr("(15|3)", "(16|3)", "OD"),
    obstr("(15|3)", "(8|3)", "A"),
    obstr("(16|1)", "(16|2)", "OD"),
    obstr("(16|1)", "(16|3)", "OD"),
    obstr("(16|1)", "(8|3)", "OD"),
    obstr("(16|2)", "(16|1)", "OD"),
    obstr("(16|2)", "(16|3)", "OD"),
    obstr("(16|2)", "(8|3)", "OD"),
    obstr("(16|3)", "(16|1)", "D"),
    obstr("(16|3)", "(16|2)", "E"),
    obstr("(18;l|1)", "(7|3)", "A"),
    obstr("(18;l|1)", "(16|3)", "A"),
    obstr("(18;l|1)", "(18;l|2)", "A"),
    obstr("(18;l|1)", "(19|1)", "A"),
    obstr("(18;l|1)", "(8|3)", "A"),
    obstr("(18;l|2)", "(7|2)", "D"),
    obstr("(18;l|2)", "(16|1)", "D",
          note="of the grouped methods D, E only D separates this pair"),
    obstr("(18;l|2)", "(16|2)", "E",
          note="of the grouped methods D, E only E separates this pair"),
    obstr("(18;l|2)", "(18;l|1)", "D"),
    obstr("(19|1)", "(12|1)", "D"),
]

# representative cross-component pairs: no degeneration can change dim A_0
OBSTRUCTIONS_DIM0 = [
    obstr("(9|0)", "(9|3)", "DIM0"),
    obstr("(9|1)", "(9|2)", "DIM0"),
    obstr("(7|1)", "(7|2)", "DIM0"),
    obstr("(16|0)", "(16|1)", "DIM0"),
    obstr("(8|1)", "(8|3)", "DIM0"),
    obstr("(2|1)", "(2|3)", "DIM0"),
    obstr("(1|0)", "(1|2)", "DIM0"),
    obstr("(18;l|0)", "(18;l|1)", "DIM0"),
]

UNDETERMINED = [
    {"source": "(2|2)", "target": "(6|1)", "component": 3},
    {"source": "(1|2)", "target": "(6|2)", "component": 2},
    {"source": "(2|3)", "target": "(6|2)", "component": 2},
    {"source": "(18;l|2)", "target": "(19|1)", "component": 2},
    {"source": "(2|3)", "target": "(7|3)", "component": 2},
    {"source": "(14|3)", "target": "(16|2)", "component": 2},
    {"source": "(15|3)", "target": "(16|1)", "component": 2},
]

FILES = {
    "spec_dim3": ("specializations in the component with a 3-dimensional even part", SPEC_DIM3),
    "spec_dim2": ("specializations in the component with a 2-dimensional even part", SPEC_DIM2),
    "family_limits": ("limits through the one-parameter families", FAMILY_LIMITS),
    "obstructions_dim3": ("non-degenerations, 3-dimensional even part", OBSTRUCTIONS_DIM3),
    "obstructions_dim2": ("non-degenerations, 2-dimensional even part", OBSTRUCTIONS_DIM2),
    "obstructions_dim0": ("non-degenerations across components", OBSTRUCTIONS_DIM0),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Write and verify the certificate data files.")
    ap.add_argument("--out-dir", default=DATA, help="directory to write into (default: the packaged data)")
    out_dir = ap.parse_args(argv).out_dir
    os.makedirs(out_dir, exist_ok=True)
    catalog = load_catalog()
    failures = []
    for name, (comment, records) in FILES.items():
        for rec in records:
            cert = cert_from_record(rec)
            outcome = verify_cert(cert, catalog)
            expected = rec.get("expected", "verified")
            got = outcome.status
            mark = "ok" if got == expected else "MISMATCH"
            if got != expected:
                failures.append((name, cert.describe(), expected, str(outcome)))
            print(f"[{mark}] {name}: {cert.describe()} -> {outcome}")
        payload = {"comment": comment, "certs": records}
        with open(os.path.join(out_dir, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    with open(os.path.join(out_dir, "undetermined.json"), "w", encoding="utf-8") as fh:
        json.dump({"comment": "pairs left open by the classification", "pairs": UNDETERMINED}, fh, indent=1)
        fh.write("\n")
    if failures:
        print("\nUNEXPECTED VERDICTS:")
        for f in failures:
            print("  ", f)
        sys.exit(1)
    print("\nall certificate files written and verified")


if __name__ == "__main__":
    main()
