#!/usr/bin/env python3
"""Check Matrix.rank against sympy on the derivation systems of the catalog:

    python3 tools/oracle_rank.py

For every one of the 61 catalog entries, graded and ungraded, it builds
the derivation system of invariants.derivation_system and takes its rank
twice: with the package's Matrix.rank, and with sympy's
DomainMatrix over QQ<zeta8>, or over the fraction field QQ<zeta8>(l) for the
(18;l|j) families.  It prints one line per system and exits 1 on any
mismatch.  Needs sympy.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import sympy
from sympy.polys.matrices import DomainMatrix

from superdegen.catalog import load_catalog
from superdegen.invariants import derivation_system
from superdegen.linalg import FIELD_LRAT, Matrix
from superdegen.scalars import LambdaRat

_ZETA8 = sympy.sqrt(2) / 2 + sympy.I * sympy.sqrt(2) / 2
QZ = sympy.QQ.algebraic_field(_ZETA8)  # QQ<zeta8>
_POWERS = [QZ.from_sympy(_ZETA8 ** i) for i in range(4)]
_QZ_L = QZ[sympy.Symbol("l")]
QZL = _QZ_L.get_field()  # QQ<zeta8>(l)


def in_qz(x):
    """A Cyclo8 as an element of QQ<zeta8>."""
    return sum((QZ.convert(sympy.QQ(a, x.d)) * p for a, p in zip(x.c, _POWERS)), QZ.zero)


def _in_qz_l(poly):
    return sum((_QZ_L.convert_from(in_qz(c), QZ) * _QZ_L.gens[0] ** i for i, c in enumerate(poly)), _QZ_L.zero)


def in_qzl(x):
    """A LambdaRat (or Cyclo8) as an element of QQ<zeta8>(l)."""
    x = LambdaRat.coerce(x)
    return QZL.convert(_in_qz_l(x.num)) / QZL.convert(_in_qz_l(x.den))


def sympy_rank(rows, field) -> int:
    dom, conv = (QZL, in_qzl) if field is FIELD_LRAT else (QZ, in_qz)
    return DomainMatrix([[conv(x) for x in row] for row in rows], (len(rows), len(rows[0])), dom).rank()


def main():
    catalog = load_catalog()
    t0 = time.perf_counter()
    systems = mismatches = 0
    for label in catalog.labels():
        sc = catalog.entry(label).sc
        for graded in (True, False):
            rows = derivation_system(sc, graded)
            ours, theirs = Matrix.from_rows(rows, sc.field).rank(), sympy_rank(rows, sc.field)
            systems += 1
            mismatches += ours != theirs
            mark = "ok" if ours == theirs else "MISMATCH"
            print(f"[{mark}] {label} {'graded' if graded else 'ungraded'}: rank {ours}, sympy {theirs}")
    print(f"{systems} systems, {mismatches} mismatches, {time.perf_counter() - t0:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
