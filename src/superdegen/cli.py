"""superdegen: verify the catalog, print dimension tables, check certificate
files, emit degeneration diagrams, list generic structures.

The embedded catalog can be overridden per invocation with --catalog or
globally with the SUPERDEGEN_CATALOG environment variable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import reports
from .catalog import Catalog, CatalogError, load_catalog
from .certs import UNSUPPORTED as CERT_UNSUPPORTED
from .certs import VERIFIED, CertFormatError, load_cert_file, verify_cert
from .graph import (ContradictionFound, UnverifiedCert, dot_diagram, generic_structures, json_diagram,
                    load_default_graph)
from .invariants import fingerprint
from .structure import AxiomError

FAMILY_ROWS = ["1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
               "14", "15", "16", "17", "18;l", "19"]
SPOT_LAMBDAS = (2, 5)


class OutputError(OSError):
    """An output file named on the command line cannot be written."""


def _load(args) -> Catalog:
    return load_catalog(getattr(args, "catalog", None))


def cmd_verify_catalog(args) -> reports.RunReport:
    rep = reports.RunReport("verify-catalog")
    try:
        catalog = _load(args)
    except CatalogError as exc:
        rep.add("load", reports.FAIL, str(exc))
        return rep
    rep.add("load", reports.PASS, f"{len(catalog)} entries validated")
    for label in sorted(catalog.labels()):
        e = catalog.entry(label)
        if not e.parametric:
            rep.add(label, reports.PASS, "defining equations hold")
            continue
        try:
            for v in SPOT_LAMBDAS:
                catalog.get(label, v)
        except (CatalogError, AxiomError) as exc:
            rep.add(label, reports.FAIL, f"spot substitution failed: {exc}")
            continue
        rep.add(label, reports.PASS,
                f"defining equations hold symbolically and at parameter values {SPOT_LAMBDAS}")
    for rec in catalog.coincidence_check():
        name = f"coincidence {rec['family']} at {rec['at']} vs {rec['target']}"
        rep.add(name, reports.PASS if rec["ok"] else reports.FAIL, rec.get("error", rec["kind"]))
    bad = catalog.check_alpha_blocks()
    rep.add("alpha blocks vs family references", reports.FAIL if bad else reports.PASS,
            ", ".join(bad) if bad else "all recorded base changes reproduce the alpha blocks")
    return rep


def _table_cells(catalog: Catalog, kind: str):
    cells = {}
    for e in catalog.entries.values():
        j = int(e.label.split("|")[1].rstrip(")"))
        value = e.stab_dim if kind == "stab" else e.orbit_dim
        expected = e.expected_stab_dim if kind == "stab" else e.expected_orbit_dim
        cells[(e.family, j)] = (value, expected)
    return cells


def cmd_tables(args) -> reports.RunReport:
    rep = reports.RunReport(f"tables-{args.kind}")
    catalog = _load(args)
    cells = _table_cells(catalog, args.kind)
    title = "Stabilizer dimensions" if args.kind == "stab" else "Orbit dimensions"
    print(title)
    print(f"{'':>10} " + " ".join(f"{j:>4}" for j in range(4)))
    for fam in FAMILY_ROWS:
        row = [f"({fam}|.)".rjust(10)]
        ok = True
        for j in range(4):
            if (fam, j) not in cells:
                row.append("    ")
                continue
            value, expected = cells[(fam, j)]
            mark = "" if value == expected else "!"
            ok = ok and value == expected
            row.append(f"{value}{mark}".rjust(4))
        print(" ".join(row))
        mismatches = [f"({fam}|{j}): computed {cells[fam, j][0]} declared {cells[fam, j][1]}"
                      for j in range(4) if (fam, j) in cells and cells[fam, j][0] != cells[fam, j][1]]
        rep.add(f"({fam}|.)", reports.PASS if ok else reports.FAIL, "; ".join(mismatches))
    return rep


def cmd_check(args) -> reports.RunReport:
    rep = reports.RunReport("check")
    catalog = _load(args)
    n = catalog.n
    for path in args.certfiles:
        try:
            certs = load_cert_file(path, n)
        except (CertFormatError, OSError, json.JSONDecodeError) as exc:
            rep.add(path, reports.ERROR, f"cannot load: {exc}")
            continue
        for cert in certs:
            outcome = verify_cert(cert, catalog)
            name = f"{path}: {cert.describe()}"
            if outcome.status == CERT_UNSUPPORTED:
                rep.add(name, reports.UNSUPPORTED, str(outcome))
            elif outcome.verified:
                rep.add(name, reports.PASS if cert.expected == VERIFIED else reports.FAIL,
                        "Verified" if cert.expected == VERIFIED else "verified although recorded otherwise")
            elif cert.expected != VERIFIED:
                rep.add(name, reports.UNDETERMINED, f"{outcome} (recorded verdict)")
            else:
                rep.add(name, reports.FAIL, str(outcome))
    return rep


def _diagram_text(args) -> str:
    graph = load_default_graph(_load(args))
    if args.format == "dot":
        return dot_diagram(graph, args.component)
    return json.dumps(json_diagram(graph, args.component), indent=1) + "\n"


def cmd_diagram(args) -> reports.RunReport:
    rep = reports.RunReport("diagram")
    if args.out:
        # opened before the graph is built, so a bad path fails at once
        try:
            fh = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise OutputError(f"cannot write {args.out}: {exc.strerror}") from exc
        with fh:
            fh.write(_diagram_text(args))
        rep.add(f"component {args.component}", reports.PASS, f"wrote {args.out}")
    else:
        sys.stdout.write(_diagram_text(args))
        rep.add(f"component {args.component}", reports.PASS, f"{args.format} on stdout")
    return rep


def cmd_fingerprint(args) -> reports.RunReport:
    rep = reports.RunReport("fingerprint")
    catalog = _load(args)
    sc = catalog.get(args.label, getattr(args, "lam", None))
    fp = fingerprint(sc)
    print(json.dumps({
        "label": args.label,
        "lambda": getattr(args, "lam", None),
        "n": fp.n,
        "dim0": fp.dim0,
        "stab_dim": fp.stab_dim,
        "orbit_dim": fp.orbit_dim,
        "odd_part_squares_to_zero": fp.flag_a,
        "even_part_commutative": fp.flag_b,
        "dim_j_even": fp.dim_j,
        "j_kills_odd_left": fp.flag_d,
        "j_kills_odd_right": fp.flag_e,
        "dim_odd_square": fp.dim_odd_square,
        "dim_radical": fp.dim_radical,
    }, indent=1))
    rep.add(args.label, reports.PASS, "fingerprint printed")
    return rep


def cmd_generic(args) -> reports.RunReport:
    rep = reports.RunReport("generic")
    catalog = _load(args)
    graph = load_default_graph(catalog)
    for label, flag in generic_structures(graph, args.component):
        status = reports.UNDETERMINED if flag == "undetermined" else reports.PASS
        rep.add(label, status, flag)
    return rep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="superdegen", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--catalog", help="catalog file overriding the embedded one")
    p.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    p.add_argument("--timing", action="store_true", help="include wall-clock time in the report")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("verify-catalog", help="defining equations and declared invariants"
                   ).set_defaults(fn=cmd_verify_catalog)

    t = sub.add_parser("tables", help="stabilizer / orbit dimension tables")
    t.add_argument("--kind", choices=("stab", "orbit"), required=True)
    t.set_defaults(fn=cmd_tables)

    c = sub.add_parser("check", help="verify certificate files")
    c.add_argument("certfiles", nargs="+",
                   help="certificate files; bare names resolve to the packaged data sets")
    c.set_defaults(fn=cmd_check)

    d = sub.add_parser("diagram", help="emit a degeneration diagram")
    d.add_argument("--component", type=int, choices=(1, 2, 3, 4), required=True)
    d.add_argument("--format", choices=("dot", "json"), default="dot")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_diagram)

    f = sub.add_parser("fingerprint", help="invariant fingerprint of one catalog entry")
    f.add_argument("label")
    f.add_argument("--lambda", dest="lam", help="family parameter value (exact literal)")
    f.set_defaults(fn=cmd_fingerprint)

    g = sub.add_parser("generic", help="generic structures of one component")
    g.add_argument("--component", type=int, choices=(1, 2, 3, 4), required=True)
    g.set_defaults(fn=cmd_generic)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        rep = args.fn(args)
    except (CatalogError, AxiomError, OutputError, UnverifiedCert, ContradictionFound) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    rep.elapsed = time.time() - t0
    out = rep.to_json(args.timing) + "\n" if args.json else rep.to_text(args.timing)
    sys.stdout.write(out)
    return rep.exit_code


if __name__ == "__main__":
    sys.exit(main())
