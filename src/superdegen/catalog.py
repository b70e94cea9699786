"""The encoded classification of 4-dimensional superalgebras.

Entries are stored as data (exact scalar literals for the structure
constants) in data/catalog.json, generated once by tools/make_catalog.py
from the concrete models and listed bases of the classification; see
data/schema.md for the bit-exact file layout.  The loader re-validates
every entry: defining equations, declared component, label uniqueness,
and use of the family parameter.

The default catalog holds 5 552 literals but only six distinct ones
(`0`, `1`, `-1`, `2`, `-2`, `l`).  `load_catalog` parses each distinct
(field, literal) pair once per load, in a dict local to that load, into
its scalar and its int coefficients in l.  The entries share the scalars,
which are immutable, and keep the integer image read off the ints (D = E
= 1; degree 0 for the fixed entries), so they validate and rank on ints.
A bad literal fails at its first occurrence, so the error names that one.

The same dict keeps one grading split per distinct (field, gamma literals),
six for the 61 default entries.  Each entry keeps its split, and computes
its stabilizer dimension and its table of closed sets once, on first use.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .cyclo import Cyclo8
from .invariants import closed_set_member, fingerprint, stabilizer_dim
from .linalg import FIELD_C8, FIELD_LRAT, Matrix, integer_polys
from .literals import ParseError, parse_scalar
from .scalars import LambdaRat
from .structure import (GradedSplit, NotInGroup, StructureConstants, grading_split, group_element,
                        transport_algebra, validate)


class CatalogError(ValueError):
    pass


class CatalogParseError(CatalogError):
    pass


class CatalogReadError(CatalogError):
    """The catalog file named by --catalog or SUPERDEGEN_CATALOG cannot be read."""


class ValidationError(CatalogError):
    pass


class UnknownLabel(CatalogError):
    pass


class ForbiddenParameter(CatalogError):
    pass


FORBIDDEN_LAMBDA = (Cyclo8(-1), Cyclo8(0), Cyclo8(1))

# closed-orbit representative of each connected component (dim A_0 -> label)
CLOSED_ORBIT_LABEL = {4: "(9|0)", 3: "(9|1)", 2: "(9|2)", 1: "(9|3)"}


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    family: str
    n: int
    component: int
    parametric: bool
    sc: StructureConstants
    split: GradedSplit
    basis_doc: tuple
    algebra_doc: str
    expected_stab_dim: int
    expected_orbit_dim: int
    u_base_change: Matrix | None

    @cached_property
    def stab_dim(self) -> int:
        return stabilizer_dim(self.sc)

    @property
    def orbit_dim(self) -> int:
        return self.n * self.n - self.n - self.stab_dim

    @cached_property
    def closed_sets(self) -> dict:
        return closed_set_member(self.sc, self.split)


def _parse_in(field, lits, table, where, indexed=True):
    """The pair of each literal: its scalar in field and its int coefficient
    list in l (None unless the scalar is a polynomial in l with int
    coefficients, so `1/l` and `1/2` have none).  `table` holds the pairs of
    one load; an error names where[index] (where, unindexed)."""
    out = []
    for idx, lit in enumerate(lits):
        if type(lit) is not str or lit not in table:
            at = f"{where}[{idx}]" if indexed else where
            try:
                v = parse_scalar(lit)
            except Exception as exc:
                raise CatalogParseError(f"{at}: {exc}") from exc
            try:
                v = field.lift(v)
            except TypeError as exc:
                raise ValidationError(f"{at}: literal {lit!r} does not lie in {field.name}") from exc
            x = LambdaRat.coerce(v)
            image = integer_polys([x.num]) if len(x.den) == 1 else None  # a monic den of length 1 is 1
            table[lit] = v, image[1][0] if image and image[0] == 1 else None
        out.append(table[lit])
    return out


def _k_major(flat, n):
    """alpha[i][j] as the n-tuple over k of the file's alpha[k*n*n + i*n + j]."""
    ij = list(zip(*[flat[k * n * n:(k + 1) * n * n] for k in range(n)]))
    return [ij[i * n:(i + 1) * n] for i in range(n)]


def entry_from_record(rec: dict, parsed=None) -> CatalogEntry:
    """One validated entry; `parsed`, the dict of one load, maps each field's
    name to its literal table (`_parse_in`) and (field name, gamma literals)
    to the grading split made for them."""
    parsed = {} if parsed is None else parsed
    for key in ("label", "n", "component", "parametric", "alpha", "gamma"):
        if key not in rec:
            raise CatalogParseError(f"catalog entry missing field {key!r}")
    label = rec["label"]
    n = rec["n"]
    parametric = bool(rec["parametric"])
    field = FIELD_LRAT if parametric else FIELD_C8
    if type(n) is not int:
        raise CatalogParseError(f"{label}: n must be an integer, got {n!r}")
    for key in ("alpha", "gamma"):
        if type(rec[key]) is not list:
            raise CatalogParseError(f"{label}: {key} must be a list of literals")
    if len(rec["alpha"]) != n ** 3:
        raise CatalogParseError(f"{label}: alpha must hold {n ** 3} literals")
    if len(rec["gamma"]) != n ** 2:
        raise CatalogParseError(f"{label}: gamma must hold {n ** 2} literals")
    table = parsed.setdefault(field.name, {})
    avals, aints = zip(*_parse_in(field, rec["alpha"], table, f"{label}.alpha"))
    gvals, gints = zip(*_parse_in(field, rec["gamma"], table, f"{label}.gamma"))
    rows = range(0, n * n, n)
    image = (1, _k_major(aints, n), 1, [gints[r:r + n] for r in rows], max(map(len, aints + gints)) - 1) \
        if None not in aints + gints else None  # else `_image` reads it off the constants, if there is one
    sc = StructureConstants(n, _k_major(avals, n), [gvals[r:r + n] for r in rows], field, image=image)
    try:
        validate(sc)
    except Exception as exc:
        raise ValidationError(f"{label}: {exc}") from exc
    key = (field.name, tuple(rec["gamma"]))
    split = parsed[key] = parsed.get(key) or grading_split(sc)
    if split.dim0 != rec["component"]:
        raise ValidationError(
            f"{label}: declared component {rec['component']} but the involution splits {split.dim0}+{n - split.dim0}"
        )
    # a literal of a fixed entry lies in Q(z), so only a family can miss l
    if parametric and all(table[lit][0].is_constant() for lit in {*rec["alpha"], *rec["gamma"]}):
        raise ValidationError(f"{label}: declared parametric but no literal involves the family parameter")
    change = None
    if rec.get("u_base_change"):
        lits = rec["u_base_change"]
        if type(lits) is not list or len(lits) != n * n:
            raise CatalogParseError(f"{label}: u_base_change must hold {n * n} literals")
        pairs = _parse_in(field, lits, table, f"{label}.u_base_change", False)
        change = Matrix(n, n, [v for v, _ in pairs], field)
        try:
            group_element(change)
        except NotInGroup as exc:
            raise ValidationError(f"{label}: u_base_change: {exc}") from exc
    fam = label.split("|")[0].lstrip("(")
    return CatalogEntry(
        label=label,
        family=fam,
        n=n,
        component=rec["component"],
        parametric=parametric,
        sc=sc,
        split=split,
        basis_doc=tuple(rec.get("basis_doc", ())),
        algebra_doc=rec.get("algebra_doc", ""),
        expected_stab_dim=rec.get("expected_stab_dim"),
        expected_orbit_dim=rec.get("expected_orbit_dim"),
        u_base_change=change,
    )


class Catalog:
    def __init__(self, entries):
        self.entries = {}
        for e in entries:
            if e.label in self.entries:
                raise ValidationError(f"duplicate label {e.label}")
            self.entries[e.label] = e

    def __len__(self):
        return len(self.entries)

    def __contains__(self, label):
        return label in self.entries

    def labels(self):
        return list(self.entries)

    def entry(self, label: str) -> CatalogEntry:
        if label not in self.entries:
            raise UnknownLabel(f"no catalog entry {label!r}")
        return self.entries[label]

    def get(self, label: str, lambda_value=None) -> StructureConstants:
        """Structure constants of an entry, with the family parameter substituted
        when one is supplied.  Substitution at -1, 0, 1 is refused: those values
        fall outside the family."""
        e = self.entry(label)
        if not e.parametric:
            if lambda_value is not None:
                raise ForbiddenParameter(f"{label} is not parametric")
            return e.sc
        if lambda_value is None:
            return e.sc
        if isinstance(lambda_value, str):
            try:
                lambda_value = parse_scalar(lambda_value)
            except (ParseError, ZeroDivisionError) as exc:
                raise ForbiddenParameter(f"family parameter {lambda_value!r} is not a valid literal: {exc}") from exc
        if isinstance(lambda_value, int):
            lambda_value = Cyclo8(lambda_value)
        if not isinstance(lambda_value, Cyclo8):
            raise ForbiddenParameter(f"family parameter must be a field constant, got {lambda_value!r}")
        if any(lambda_value == bad for bad in FORBIDDEN_LAMBDA):
            raise ForbiddenParameter(f"family parameter {lambda_value} is excluded for {label}")
        return self._substituted(e, lambda_value)

    @staticmethod
    def _substituted(e: CatalogEntry, value: Cyclo8) -> StructureConstants:
        """The family member at l = value; a pole of a constant there is a ForbiddenParameter."""
        try:
            alpha = [[[x.substitute(value) for x in row] for row in plane] for plane in e.sc.alpha]
            gamma = [[x.substitute(value) for x in row] for row in e.sc.gamma]
        except ZeroDivisionError as exc:
            raise ForbiddenParameter(f"family parameter {value} is excluded for {e.label}: {exc}") from exc
        return validate(StructureConstants(e.n, alpha, gamma, FIELD_C8))

    def coincidence_check(self):
        """The boundary members of the families land on catalog orbits:
        at 0 entrywise on the (16|.) entries, at 1 isomorphically (equal
        fingerprints) on the (7|.) entries."""
        results = []
        pairs_zero = [("(18;l|0)", "(16|0)"), ("(18;l|1)", "(16|1)"), ("(18;l|2)", "(16|3)")]
        pairs_one = [("(18;l|0)", "(7|0)"), ("(18;l|1)", "(7|2)"), ("(18;l|2)", "(7|3)")]
        for fam, tgt in pairs_zero:
            sub = self._substituted(self.entry(fam), Cyclo8(0))
            ok = sub == self.entry(tgt).sc
            results.append({"family": fam, "at": "0", "target": tgt, "kind": "entrywise", "ok": ok})
        for fam, tgt in pairs_one:
            sub = self._substituted(self.entry(fam), Cyclo8(1))
            ok = fingerprint(sub) == fingerprint(self.entry(tgt).sc)
            results.append({"family": fam, "at": "1", "target": tgt, "kind": "fingerprint", "ok": ok})
        return results

    def check_alpha_blocks(self):
        """Each entry's alpha block equals its family reference's alpha block
        transported by the recorded constant basis change."""
        bad = []
        for e in self.entries.values():
            if e.u_base_change is None:
                continue
            ref = self.entries.get(f"({e.family}|0)")
            if ref is None:
                continue
            moved = transport_algebra(e.u_base_change, ref.sc.alpha, e.sc.field)
            if moved != e.sc.alpha:
                bad.append(e.label)
        return bad


def _records_from_source(data) -> list:
    if isinstance(data, dict):
        data = data.get("entries")
    if not isinstance(data, list):
        raise CatalogParseError("catalog file must be a list of entries or an object with an 'entries' list")
    return data


def load_catalog(source=None) -> Catalog:
    """Load and validate a catalog: a path, or None for the embedded default
    (the SUPERDEGEN_CATALOG environment variable overrides the default)."""
    if source is None:
        source = os.environ.get("SUPERDEGEN_CATALOG") or None
    if source is None:
        text = resources.files("superdegen.data").joinpath("catalog.json").read_text("utf-8")
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CatalogReadError(f"cannot read catalog {source}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise CatalogParseError(f"catalog {source} is not UTF-8 text: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogParseError(f"catalog is not valid JSON: {exc}") from exc
    parsed = {}
    return Catalog([entry_from_record(rec, parsed) for rec in _records_from_source(data)])
