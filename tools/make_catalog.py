#!/usr/bin/env python3
"""Generate catalog.json, into src/superdegen/data/ unless --out-dir names
another directory:

    python3 tools/make_catalog.py [--out-dir DIR]

Every entry is specified by a concrete model of its underlying algebra
(componentwise products, matrix products, or a monomial multiplication
table) together with the even/odd basis vectors of the classification
listing, unit first.  Structure constants are computed by multiplying
basis vectors in the model and solving for coordinates; nothing is typed
in by hand except the models and bases themselves.  The loader and the
test suite re-verify everything independently (defining equations,
component splits, dimension tables, closed-set memberships).
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from superdegen.linalg import FIELD_C8, FIELD_LRAT, Matrix
from superdegen.scalars import LAMBDA
from superdegen.structure import StructureConstants, validate, grading_split

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "superdegen", "data")


# ---------------------------------------------------------------- models

def componentwise(dims):
    """Product of quotient rings k[X]/(X^m); element = concatenated coefficient
    vectors; dims lists the m per factor (m=1 is a plain field factor)."""
    def mult(u, v, field):
        out = []
        pos = 0
        for m in dims:
            a, b = u[pos:pos + m], v[pos:pos + m]
            c = [field.zero] * m
            for i in range(m):
                for j in range(m - i):
                    c[i + j] = c[i + j] + field.lift(a[i]) * field.lift(b[j])
            out.extend(c)
            pos += m
        return tuple(out)
    unit = []
    for m in dims:
        unit.extend([1] + [0] * (m - 1))
    return mult, tuple(unit), sum(dims)


def kxy_square_zero():
    """k x k[X,Y]/(X,Y)^2; coords (a, c1, cX, cY)."""
    def mult(u, v, field):
        L = [field.lift(x) for x in u]
        R = [field.lift(x) for x in v]
        return (L[0] * R[0], L[1] * R[1], L[1] * R[2] + L[2] * R[1], L[1] * R[3] + L[3] * R[1])
    return mult, (1, 1, 0, 0), 4


def square_zero_radical():
    """k[X,Y,Z]/(X,Y,Z)^2; coords (1, X, Y, Z)."""
    def mult(u, v, field):
        L = [field.lift(x) for x in u]
        R = [field.lift(x) for x in v]
        return (L[0] * R[0], L[0] * R[1] + L[1] * R[0], L[0] * R[2] + L[2] * R[0], L[0] * R[3] + L[3] * R[0])
    return mult, (1, 0, 0, 0), 4


def monomial_table(products, names=("1", "X", "Y", "XY")):
    """4-dim monomial algebra with unit first; products maps (i, j) for
    1 <= i, j <= 3 to a list of (k, coeff) terms, omitted pairs vanish."""
    def mult(u, v, field):
        out = [field.zero] * 4
        L = [field.lift(x) for x in u]
        R = [field.lift(x) for x in v]
        for k in range(4):
            out[k] = out[k] + L[0] * R[k]
        for k in range(1, 4):
            out[k] = out[k] + L[k] * R[0]
        for (i, j), terms in products.items():
            f = L[i] * R[j]
            if f.is_zero():
                continue
            for k, c in terms:
                out[k] = out[k] + f * field.lift(c)
        return tuple(out)
    return mult, (1, 0, 0, 0), 4


def matrix_algebra(size):
    def mult(u, v, field):
        out = []
        for r in range(size):
            for c in range(size):
                acc = field.zero
                for k in range(size):
                    acc = acc + field.lift(u[r * size + k]) * field.lift(v[k * size + c])
                out.append(acc)
        return tuple(out)
    unit = tuple(1 if r == c else 0 for r in range(size) for c in range(size))
    return mult, unit, size * size


def k_times_ut2():
    """k x upper-triangular 2x2; coords (a, b, c, d) = (a, [[b, c], [0, d]])."""
    def mult(u, v, field):
        L = [field.lift(x) for x in u]
        R = [field.lift(x) for x in v]
        return (L[0] * R[0], L[1] * R[1], L[1] * R[2] + L[2] * R[3], L[3] * R[3])
    return mult, (1, 1, 0, 1), 4


def E(size, r, c):
    return tuple(1 if (i, j) == (r, c) else 0 for i in range(size) for j in range(size))


def madd(*terms):
    out = None
    for coeff, vec in terms:
        if out is None:
            out = [0] * len(vec)
        for i, x in enumerate(vec):
            out[i] += coeff * x
    return tuple(out)


I3 = tuple(1 if r == c else 0 for r in range(3) for c in range(3))
P3 = madd((1, E(3, 0, 0)), (1, E(3, 1, 1)))
I4 = tuple(1 if r == c else 0 for r in range(4) for c in range(4))
P4 = madd((1, E(4, 0, 0)), (1, E(4, 1, 1)))
D11 = madd((1, E(4, 0, 0)), (1, E(4, 1, 1)), (-1, E(4, 2, 2)), (-1, E(4, 3, 3)))

MODELS = {
    "1": (componentwise([1, 1, 1, 1]), "k x k x k x k"),
    "2": (componentwise([1, 1, 2]), "k x k x k[X]/(X^2)"),
    "3": (componentwise([2, 2]), "k[X]/(X^2) x k[Y]/(Y^2)"),
    "4": (componentwise([1, 3]), "k x k[X]/(X^3)"),
    "5": (componentwise([4]), "k[X]/(X^4)"),
    "6": (kxy_square_zero(), "k x k[X,Y]/(X,Y)^2"),
    "7": (monomial_table({(1, 2): [(3, 1)], (2, 1): [(3, 1)]}), "k[X,Y]/(X^2, Y^2)"),
    "8": (monomial_table({(1, 1): [(2, 1)]}, names=("1", "X", "X2", "Y")), "k[X,Y]/(X^3, XY, Y^2)"),
    "9": (square_zero_radical(), "k[X,Y,Z]/(X,Y,Z)^2"),
    "10": (matrix_algebra(2), "M_2"),
    "11": (matrix_algebra(4), "{{a,0,0,0},{0,a,0,d},{c,0,b,0},{0,0,0,b}}"),
    "12": (monomial_table({(1, 2): [(3, 1)], (2, 1): [(3, -1)]}), "exterior algebra on k^2"),
    "13": (k_times_ut2(), "k x {{b,c},{0,d}}"),
    "14": (matrix_algebra(3), "{{a,0,0},{c,a,0},{d,0,b}}"),
    "15": (matrix_algebra(3), "{{a,c,d},{0,a,0},{0,0,b}}"),
    "16": (monomial_table({(1, 2): [(3, 1)]}), "k<X,Y>/(X^2, Y^2, YX)"),
    "17": (matrix_algebra(3), "{{a,0,0},{0,a,0},{c,d,b}}"),
    "18;l": (monomial_table({(1, 2): [(3, 1)], (2, 1): [(3, LAMBDA)]}), "k<X,Y>/(X^2, Y^2, YX - l XY)"),
    "19": (monomial_table({(1, 1): [(3, 1)], (1, 2): [(3, 1)], (2, 1): [(3, -1)]}), "k<X,Y>/(Y^2, X^2+YX, XY+YX)"),
}

# declared dimension table: family -> stabilizer dims by grading index j
STAB = {
    "1": [0, 0, 0], "2": [1, 1, 1, 1], "3": [2, 2, 2, 1], "4": [2, 1], "5": [3, 2],
    "6": [4, 2, 4], "7": [4, 2, 3, 2], "8": [5, 3, 3, 3], "9": [9, 5, 5, 9],
    "10": [3, 1], "11": [4, 3, 2, 2], "12": [6, 3, 4], "13": [2, 1],
    "14": [3, 3, 2, 2], "15": [3, 3, 2, 2], "16": [4, 3, 3, 2], "17": [6, 3, 4],
    "18;l": [4, 3, 2], "19": [4, 2],
}

# entries: family -> list of (j, [even vectors], [odd vectors], basis_doc)
# vectors are model coordinates; the unit is implicit and always first.
ENTRIES = {
    "1": [
        (0, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], [],
         ["(1,1,1,1)", "(1,0,0,0)", "(0,1,0,0)", "(0,0,1,0)"]),
        (1, [(1, 0, 0, 0), (0, 0, 1, 1)], [(0, 0, 1, -1)],
         ["(1,1,1,1)", "(1,0,0,0)", "(0,0,1,1)", "odd (0,0,1,-1)"]),
        (2, [(1, 1, 0, 0)], [(1, -1, 0, 0), (0, 0, 1, -1)],
         ["(1,1,1,1)", "(1,1,0,0)", "odd (1,-1,0,0)", "odd (0,0,1,-1)"]),
    ],
    "2": [
        (0, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], [],
         ["(1,1,1)", "(1,0,0)", "(0,1,0)", "(0,0,X)"]),
        (1, [(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 0, 1)],
         ["(1,1,1)", "(1,0,0)", "(0,1,0)", "odd (0,0,X)"]),
        (2, [(1, 1, 0, 0), (0, 0, 0, 1)], [(1, -1, 0, 0)],
         ["(1,1,1)", "(1,1,0)", "(0,0,X)", "odd (1,-1,0)"]),
        (3, [(1, 1, 0, 0)], [(1, -1, 0, 0), (0, 0, 0, 1)],
         ["(1,1,1)", "(1,1,0)", "odd (1,-1,0)", "odd (0,0,X)"]),
    ],
    "3": [
        (0, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1)], [],
         ["(1,1)", "(1,0)", "(X,0)", "(0,Y)"]),
        (1, [(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 0, 1)],
         ["(1,1)", "(1,0)", "(X,0)", "odd (0,Y)"]),
        (2, [(1, 0, 0, 0)], [(0, 1, 0, 0), (0, 0, 0, 1)],
         ["(1,1)", "(1,0)", "odd (X,0)", "odd (0,Y)"]),
        (3, [(0, 1, 0, 1)], [(1, 0, -1, 0), (0, 1, 0, -1)],
         ["(1,1)", "(X,Y)", "odd (1,-1)", "odd (X,-Y)"]),
    ],
    "4": [
        (0, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["(1,1)", "(1,0)", "(0,X)", "(0,X^2)"]),
        (1, [(1, 0, 0, 0), (0, 0, 0, 1)], [(0, 0, 1, 0)],
         ["(1,1)", "(1,0)", "(0,X^2)", "odd (0,X)"]),
    ],
    "5": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "X^2", "X^3"]),
        (1, [(0, 0, 1, 0)], [(0, 1, 0, 0), (0, 0, 0, 1)],
         ["1", "X^2", "odd X", "odd X^3"]),
    ],
    "6": [
        (0, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["(1,1)", "(1,0)", "(0,X)", "(0,Y)"]),
        (1, [(1, 0, 0, 0), (0, 0, 1, 0)], [(0, 0, 0, 1)],
         ["(1,1)", "(1,0)", "(0,X)", "odd (0,Y)"]),
        (2, [(1, 0, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)],
         ["(1,1)", "(1,0)", "odd (0,X)", "odd (0,Y)"]),
    ],
    "7": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "Y", "XY"]),
        (1, [(0, 1, 1, 0), (0, 0, 0, 1)], [(0, 1, -1, 0)],
         ["1", "X+Y", "XY", "odd X-Y"]),
        (2, [(0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)],
         ["1", "X", "odd Y", "odd XY"]),
        (3, [(0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)],
         ["1", "XY", "odd X", "odd Y"]),
    ],
    "8": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "X^2", "Y"]),
        (1, [(0, 1, 0, 0), (0, 0, 1, 0)], [(0, 0, 0, 1)],
         ["1", "X", "X^2", "odd Y"]),
        (2, [(0, 0, 1, 0), (0, 0, 0, 1)], [(0, 1, 0, 0)],
         ["1", "X^2", "Y", "odd X"]),
        (3, [(0, 0, 1, 0)], [(0, 1, 0, 0), (0, 0, 0, 1)],
         ["1", "X^2", "odd X", "odd Y"]),
    ],
    "9": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "Y", "Z"]),
        (1, [(0, 1, 0, 0), (0, 0, 1, 0)], [(0, 0, 0, 1)],
         ["1", "X", "Y", "odd Z"]),
        (2, [(0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)],
         ["1", "X", "odd Y", "odd Z"]),
        (3, [], [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
         ["1", "odd X", "odd Y", "odd Z"]),
    ],
    "10": [
        (0, [E(2, 0, 0), E(2, 0, 1), E(2, 1, 0)], [],
         ["I", "E11", "E12", "E21"]),
        (1, [E(2, 0, 0)], [E(2, 0, 1), E(2, 1, 0)],
         ["I", "E11", "odd E12", "odd E21"]),
    ],
    "11": [
        (0, [P4, E(4, 1, 3), E(4, 2, 0)], [],
         ["I", "diag(1,1,0,0)", "E24", "E31"]),
        (1, [P4, E(4, 1, 3)], [E(4, 2, 0)],
         ["I", "diag(1,1,0,0)", "E24", "odd E31"]),
        (2, [P4], [E(4, 1, 3), E(4, 2, 0)],
         ["I", "diag(1,1,0,0)", "odd E24", "odd E31"]),
        (3, [madd((1, E(4, 1, 3)), (1, E(4, 2, 0)))],
            [D11, madd((-1, E(4, 1, 3)), (1, E(4, 2, 0)))],
         ["I", "E24+E31", "odd diag(1,1,-1,-1)", "odd -E24+E31"]),
    ],
    "12": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "Y", "XY"]),
        (1, [(0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)],
         ["1", "X", "odd Y", "odd XY"]),
        (2, [(0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)],
         ["1", "XY", "odd X", "odd Y"]),
    ],
    "13": [
        (0, [(0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)], [],
         ["(1,I)", "(0,E11)", "(0,E22)", "(0,E12)"]),
        (1, [(0, 1, 0, 0), (0, 0, 0, 1)], [(0, 0, 1, 0)],
         ["(1,I)", "(0,E11)", "(0,E22)", "odd (0,E12)"]),
    ],
    "14": [
        (0, [P3, E(3, 1, 0), E(3, 2, 0)], [],
         ["I", "diag(1,1,0)", "E21", "E31"]),
        (1, [P3, E(3, 2, 0)], [E(3, 1, 0)],
         ["I", "diag(1,1,0)", "E31", "odd E21"]),
        (2, [P3, E(3, 1, 0)], [E(3, 2, 0)],
         ["I", "diag(1,1,0)", "E21", "odd E31"]),
        (3, [P3], [E(3, 1, 0), E(3, 2, 0)],
         ["I", "diag(1,1,0)", "odd E21", "odd E31"]),
    ],
    "15": [
        (0, [P3, E(3, 0, 1), E(3, 0, 2)], [],
         ["I", "diag(1,1,0)", "E12", "E13"]),
        (1, [P3, E(3, 0, 2)], [E(3, 0, 1)],
         ["I", "diag(1,1,0)", "E13", "odd E12"]),
        (2, [P3, E(3, 0, 1)], [E(3, 0, 2)],
         ["I", "diag(1,1,0)", "E12", "odd E13"]),
        (3, [P3], [E(3, 0, 1), E(3, 0, 2)],
         ["I", "diag(1,1,0)", "odd E12", "odd E13"]),
    ],
    "16": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "Y", "XY"]),
        (1, [(0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)],
         ["1", "X", "odd Y", "odd XY"]),
        (2, [(0, 0, 1, 0)], [(0, 1, 0, 0), (0, 0, 0, 1)],
         ["1", "Y", "odd X", "odd XY"]),
        (3, [(0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)],
         ["1", "XY", "odd X", "odd Y"]),
    ],
    "17": [
        (0, [P3, E(3, 2, 0), E(3, 2, 1)], [],
         ["I", "diag(1,1,0)", "E31", "E32"]),
        (1, [P3, E(3, 2, 0)], [E(3, 2, 1)],
         ["I", "diag(1,1,0)", "E31", "odd E32"]),
        (2, [P3], [E(3, 2, 0), E(3, 2, 1)],
         ["I", "diag(1,1,0)", "odd E31", "odd E32"]),
    ],
    "18;l": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "Y", "XY"]),
        (1, [(0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)],
         ["1", "X", "odd Y", "odd XY"]),
        (2, [(0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)],
         ["1", "XY", "odd X", "odd Y"]),
    ],
    "19": [
        (0, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], [],
         ["1", "X", "Y", "XY"]),
        (1, [(0, 0, 0, 1)], [(0, 1, 0, 0), (0, 0, 1, 0)],
         ["1", "XY", "odd X", "odd Y"]),
    ],
}


def coords_in_basis(basis_cols, vec, field):
    m = Matrix.from_rows([[field.lift(x) for x in col] for col in basis_cols], field).transpose()
    sol = m.solve([field.lift(x) for x in vec])
    if sol is None:
        raise SystemExit(f"vector {vec} lies outside the algebra span; bad basis data")
    return sol


def build_entry(fam, j, evens, odds, doc):
    (mult, unit, _ambient), algebra_doc = MODELS[fam]
    parametric = fam == "18;l"
    field = FIELD_LRAT if parametric else FIELD_C8
    basis = [unit] + evens + odds
    n = len(basis)
    i = 1 + len(evens)
    alpha = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            prod = mult(basis[a], basis[b], field)
            alpha[a][b] = coords_in_basis(basis, prod, field)
    alpha = [[[alpha[a][b][k] for k in range(n)] for b in range(n)] for a in range(n)]
    gamma = [[(field.one if r < i else -field.one) if r == c else field.zero for c in range(n)]
             for r in range(n)]
    sc = validate(StructureConstants(n, alpha, gamma, field))
    assert grading_split(sc).dim0 == i
    label = f"({fam}|{j})"
    stab = STAB[fam][j]
    # basis change from the family's trivially graded reference entry
    ref_evens, ref_odds = ENTRIES[fam][0][1], ENTRIES[fam][0][2]
    ref_basis = [unit] + ref_evens + ref_odds
    change = None
    if (evens, odds) != (ref_evens, ref_odds):
        cols = [coords_in_basis(ref_basis, v, field) for v in basis]
        change = [cols[c][r] for r in range(n) for c in range(n)]
    return {
        "label": label,
        "n": n,
        "component": i,
        "parametric": parametric,
        "alpha": [str(alpha[a][b][k]) for k in range(n) for a in range(n) for b in range(n)],
        "gamma": [str(gamma[r][c]) for r in range(n) for c in range(n)],
        "basis_doc": doc,
        "algebra_doc": algebra_doc,
        "expected_stab_dim": stab,
        "expected_orbit_dim": n * n - n - stab,
        "u_base_change": [str(x) for x in change] if change else None,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Write catalog.json from the concrete models.")
    ap.add_argument("--out-dir", default=DATA, help="directory to write into (default: the packaged data)")
    out = os.path.join(ap.parse_args(argv).out_dir, "catalog.json")
    records = []
    for fam in MODELS:
        for (j, evens, odds, doc) in ENTRIES[fam]:
            evens = [tuple(v) for v in evens]
            odds = [tuple(v) for v in odds]
            records.append(build_entry(fam, j, evens, odds, doc))
    payload = {
        "comment": (
            "Catalog of 4-dimensional superalgebras. alpha is k-major: "
            "alpha[k*n*n + i*n + j] is the coefficient of e_k in e_i e_j (0-based); "
            "gamma is row-major: gamma[r*n + c] is the coefficient of e_r in sigma(e_c). "
            "Scalar literals: integers, fractions, z (8th root of unity, z^4 = -1), "
            "l (family parameter). Basis order: unit, remaining even vectors, odd vectors. "
            "u_base_change, when present, expresses the entry basis in the basis of the "
            "family's (f|0) entry, column per basis vector. See data/schema.md."
        ),
        "entries": records,
    }
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(records)} entries to {out}")


if __name__ == "__main__":
    main()
