"""Degeneration certificates and their machine verification.

A specialization certificate witnesses a degeneration: a constant change to
the working basis (pre_change), a t-dependent basis curve, and an optional
constant change on the target side (post_change) absorbing the discrepancy
between the arrival basis and the target's catalog basis.  Verification
transports the source constants along the composed curve, demands that the
composed curve be generically invertible, that every transported constant
be regular at t = 0, and that the limit equal the target constants exactly.

A family-limit certificate additionally substitutes a t-rational function
for the family parameter before running the same pipeline, witnessing that
the target lies in the closure of the union of the family's orbits.

An obstruction certificate claims a NON-degeneration by one of the methods:
  OD    orbit dimension does not drop
  A..E  a closed transport-stable set contains the source but not the target
  DIM0  the even-part dimensions differ
  UNDERLYING  the underlying algebras do not degenerate (external table)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .catalog import FORBIDDEN_LAMBDA, Catalog, UnknownLabel
from .invariants import closed_set_member, orbit_dim
from .linalg import FIELD_C8, FIELD_LRAT, FIELD_TRAT, Matrix
from .literals import ParseError, parse_scalar
from .scalars import LambdaRat
from .structure import NotInGroup, StructureConstants, group_element, transport, validate
from .tpoly import TRat, substitute_lambda

VERIFIED = "verified"
NOT_VERIFIED = "not_verified"
UNSUPPORTED = "unsupported"

OBSTRUCTION_METHODS = ("OD", "A", "B", "C", "D", "E", "DIM0", "UNDERLYING")


class CertFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Outcome:
    status: str
    stage: str = ""
    detail: str = ""

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def __str__(self):
        if self.status == VERIFIED:
            return "Verified"
        body = f"{self.status}[{self.stage}]"
        return f"{body}: {self.detail}" if self.detail else body


@dataclass(frozen=True)
class SpecializationCert:
    source: str
    target: str
    pre_change: Matrix | None
    curve: Matrix
    post_change: Matrix | None
    lambda_sub: TRat | None = None
    name: str = ""
    expected: str = VERIFIED
    note: str = ""

    @property
    def is_family_limit(self) -> bool:
        return self.lambda_sub is not None

    def describe(self) -> str:
        arrow = "~>" if self.is_family_limit else "->"
        return self.name or f"{self.source} {arrow} {self.target}"


@dataclass(frozen=True)
class ObstructionCert:
    source: str
    target: str
    method: str
    name: str = ""
    expected: str = VERIFIED
    note: str = ""

    def describe(self) -> str:
        return self.name or f"{self.source} -/-> {self.target} ({self.method})"


def _lift_matrix_to_trat(m: Matrix, lam: TRat | None) -> Matrix:
    if lam is None:
        return m.map_entries(TRat.coerce, FIELD_TRAT)
    return m.map_entries(lambda x: substitute_lambda(x, lam), FIELD_TRAT)


def _sc_over_trat(sc: StructureConstants, lam: TRat | None) -> StructureConstants:
    conv = (lambda x: substitute_lambda(x, lam)) if lam is not None else TRat.coerce
    alpha = [[[conv(x) for x in row] for row in plane] for plane in sc.alpha]
    gamma = [[conv(x) for x in row] for row in sc.gamma]
    return StructureConstants(sc.n, alpha, gamma, FIELD_TRAT, validated=sc.validated)


def verify_specialization(cert: SpecializationCert, catalog: Catalog,
                          source_sc: StructureConstants | None = None,
                          target_sc: StructureConstants | None = None) -> Outcome:
    """Run the three verification stages; source/target constants may be
    passed directly to exercise the engine outside the catalog."""
    try:
        src = source_sc if source_sc is not None else catalog.get(cert.source)
        tgt = target_sc if target_sc is not None else catalog.get(cert.target)
    except UnknownLabel as exc:
        return Outcome(NOT_VERIFIED, "labels", str(exc))
    n = src.n
    lam = cert.lambda_sub
    if lam is not None:
        if lam.is_constant() and any(lam.constant_value() == bad for bad in FORBIDDEN_LAMBDA):
            return Outcome(NOT_VERIFIED, "substitution",
                           "the substituted parameter is identically an excluded value")
    # structural checks on the curve itself
    one = FIELD_TRAT.one
    zero = FIELD_TRAT.zero
    first = cert.curve.column(0)
    if list(first) != [one] + [zero] * (n - 1):
        return Outcome(NOT_VERIFIED, "curve", "curve must fix the unit (first column e_1)")
    for e in cert.curve.entries:
        if not e.is_tpoly():
            return Outcome(NOT_VERIFIED, "curve", f"curve entry {e} is not polynomial in t")
    if cert.curve.determinant().is_zero():
        return Outcome(NOT_VERIFIED, "curve-not-generic", "det of the basis curve vanishes identically")
    # stage (i): composed curve generically in the basis-change group
    pre = cert.pre_change
    if pre is not None:
        try:
            group_element(pre)
        except NotInGroup as exc:
            return Outcome(NOT_VERIFIED, "pre-change", str(exc))
        composed = _lift_matrix_to_trat(pre, lam) * cert.curve
    else:
        composed = cert.curve
    if composed.determinant().is_zero():
        return Outcome(NOT_VERIFIED, "curve-not-generic", "composed curve is singular for all t")
    # stage (ii): transport and regularity at t = 0
    src_t = _sc_over_trat(src, lam)
    moved = transport(composed, src_t, field=FIELD_TRAT, revalidate=False)
    limit_alpha = [[[None] * n for _ in range(n)] for _ in range(n)]
    limit_gamma = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = moved.alpha[i][j][k]
                if e.order_at_zero() < 0:
                    return Outcome(NOT_VERIFIED, "regularity",
                                   f"alpha[{i + 1}][{j + 1}][{k + 1}] = {e} has a pole at t = 0")
                limit_alpha[i][j][k] = e.eval_at_zero()
    for r in range(n):
        for c in range(n):
            e = moved.gamma[r][c]
            if e.order_at_zero() < 0:
                return Outcome(NOT_VERIFIED, "regularity",
                               f"gamma[{r + 1}][{c + 1}] = {e} has a pole at t = 0")
            limit_gamma[r][c] = e.eval_at_zero()
    field = FIELD_LRAT if any(
        isinstance(x, LambdaRat) for plane in limit_alpha for row in plane for x in row
    ) else FIELD_C8
    try:
        limit = validate(StructureConstants(n, limit_alpha, limit_gamma, field))
    except Exception as exc:
        return Outcome(NOT_VERIFIED, "limit", f"limit point violates the defining equations: {exc}")
    # stage (iii): exact match against the target constants
    expected = tgt
    if cert.post_change is not None:
        try:
            expected = transport(cert.post_change, tgt)
        except NotInGroup as exc:
            return Outcome(NOT_VERIFIED, "post-change", str(exc))
    if limit == expected:
        return Outcome(VERIFIED)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if not (limit.alpha[i][j][k] == expected.alpha[i][j][k]):
                    return Outcome(NOT_VERIFIED, "limit-mismatch",
                                   f"alpha[{i + 1}][{j + 1}][{k + 1}]: limit {limit.alpha[i][j][k]} "
                                   f"vs target {expected.alpha[i][j][k]}")
    return Outcome(NOT_VERIFIED, "limit-mismatch", "involution constants differ at t = 0")


def verify_family_limit(cert: SpecializationCert, catalog: Catalog) -> Outcome:
    if not cert.is_family_limit:
        return Outcome(NOT_VERIFIED, "substitution", "certificate carries no parameter substitution")
    try:
        entry = catalog.entry(cert.source)
    except UnknownLabel as exc:
        return Outcome(NOT_VERIFIED, "labels", str(exc))
    if not entry.parametric:
        return Outcome(NOT_VERIFIED, "substitution", f"{cert.source} is not a family")
    return verify_specialization(cert, catalog)


def scaling_cert(label: str, catalog: Catalog) -> SpecializationCert:
    """The universal specialization onto the closed orbit of the component:
    the unit stays, every other basis vector is scaled by t."""
    from .catalog import CLOSED_ORBIT_LABEL

    entry = catalog.entry(label)
    n = entry.n
    t = TRat.var()
    one, zero = FIELD_TRAT.one, FIELD_TRAT.zero
    curve = Matrix.from_rows(
        [[(one if r == 0 else t) if r == c else zero for c in range(n)] for r in range(n)], FIELD_TRAT
    )
    return SpecializationCert(
        source=label,
        target=CLOSED_ORBIT_LABEL[entry.component],
        pre_change=None,
        curve=curve,
        post_change=None,
        name=f"scaling {label} -> {CLOSED_ORBIT_LABEL[entry.component]}",
    )


def od_blocks(d_src: int, d_tgt: int, family: bool) -> bool:
    """Whether orbit dimensions d_src -> d_tgt rule out a degeneration.
    A one-parameter family may degenerate onto an orbit of the same
    dimension as its members, so a family source needs a strict drop."""
    return d_src < d_tgt if family else d_src <= d_tgt


def verify_obstruction(cert: ObstructionCert, catalog: Catalog, underlying=None) -> Outcome:
    if cert.method not in OBSTRUCTION_METHODS:
        return Outcome(NOT_VERIFIED, "method", f"unknown method {cert.method!r}")
    try:
        src_entry = catalog.entry(cert.source)
        tgt_entry = catalog.entry(cert.target)
    except UnknownLabel as exc:
        return Outcome(NOT_VERIFIED, "labels", str(exc))
    if cert.method == "DIM0":
        if src_entry.component != tgt_entry.component:
            return Outcome(VERIFIED)
        return Outcome(NOT_VERIFIED, "dim0", "both structures have the same even-part dimension")
    if src_entry.component != tgt_entry.component:
        return Outcome(NOT_VERIFIED, "component", "methods other than DIM0 compare within one component")
    if cert.method == "UNDERLYING":
        if underlying is None:
            return Outcome(UNSUPPORTED, "underlying", "no external algebra-degeneration table supplied")
        key = (src_entry.family, tgt_entry.family)
        if underlying.get(key):
            return Outcome(VERIFIED)
        return Outcome(NOT_VERIFIED, "underlying", "table does not assert the algebra-level obstruction")
    if cert.method == "OD":
        if cert.source == cert.target:
            return Outcome(NOT_VERIFIED, "orbit-dim", "trivial pair")
        d_src, d_tgt = orbit_dim(src_entry.sc), orbit_dim(tgt_entry.sc)
        if od_blocks(d_src, d_tgt, src_entry.parametric):
            return Outcome(VERIFIED)
        return Outcome(NOT_VERIFIED, "orbit-dim",
                       f"orbit dimensions {d_src} -> {d_tgt} leave room for a degeneration")
    # closed-set methods
    try:
        in_src = closed_set_member(src_entry.sc, cert.method)
        in_tgt = closed_set_member(tgt_entry.sc, cert.method)
    except Exception as exc:
        return Outcome(NOT_VERIFIED, "closed-set", str(exc))
    if in_src and not in_tgt:
        return Outcome(VERIFIED)
    return Outcome(NOT_VERIFIED, "closed-set",
                   f"set ({cert.method}) contains source={in_src}, target={in_tgt}; no separation")


# ------------------------------------------------------------- file format

_REQUIRED = object()
_JSON_TYPES = {str: "string", list: "array", dict: "object", int: "number", float: "number", bool: "boolean"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _field(rec, key, kind, default=_REQUIRED):
    """rec[key] checked against the JSON type `kind` (str or list); a missing
    or null optional field gives `default`."""
    value = rec.get(key)
    if value is None:
        if default is _REQUIRED:
            raise CertFormatError(f"field {key!r}: missing")
        return default
    if type(value) is not kind:
        raise CertFormatError(f"field {key!r}: expected {_JSON_TYPES[kind]}, got {_json_type(value)}")
    return value


def _literal(key, lit):
    try:
        return parse_scalar(lit)
    except (ParseError, ZeroDivisionError) as exc:
        raise CertFormatError(f"field {key!r}: bad literal {lit!r}: {exc}") from exc


def _literals(rec, key, n):
    """The n*n scalar literals of a matrix field, or None when it is absent."""
    lits = _field(rec, key, list, None)
    if lits is None:
        return None
    if len(lits) != n * n:
        raise CertFormatError(f"field {key!r}: needs {n * n} literals, got {len(lits)}")
    if not all(isinstance(lit, str) for lit in lits):
        raise CertFormatError(f"field {key!r}: every entry must be a string literal")
    return [_literal(key, lit) for lit in lits]


def _parse_group_matrix(rec, key, n, field):
    values = _literals(rec, key, n)
    if values is None:
        return None
    entries = []
    for lit, v in zip(rec[key], values):
        try:
            entries.append(field.lift(v))
        except TypeError as exc:
            raise CertFormatError(f"field {key!r}: entry {lit!r} does not lie in {field.name}") from exc
    return Matrix(n, n, entries, field)


def _parse_curve(rec, n):
    values = _literals(rec, "curve", n)
    if values is None:
        return Matrix.identity(n, FIELD_TRAT)
    entries = [TRat.coerce(v) for v in values]
    for lit, v in zip(rec["curve"], entries):
        if not v.is_tpoly():
            raise CertFormatError(f"field 'curve': entry {lit!r} is not polynomial in t")
    return Matrix(n, n, entries, FIELD_TRAT)


def cert_from_record(rec: dict, n: int = 4):
    """One certificate from its JSON record; CertFormatError names the field
    of any record that does not follow data/schema.md."""
    if not isinstance(rec, dict):
        raise CertFormatError(f"expected an object, got {_json_type(rec)}")
    kind = rec.get("kind")
    if kind not in ("obstruction", "specialization", "family_limit"):
        raise CertFormatError(f"unknown certificate kind {kind!r}")
    common = dict(source=_field(rec, "source", str), target=_field(rec, "target", str),
                  expected=_field(rec, "expected", str, VERIFIED), note=_field(rec, "note", str, ""))
    if kind == "obstruction":
        return ObstructionCert(method=_field(rec, "method", str), **common)
    lam = _field(rec, "lambda", str, None)
    if lam is not None:
        lam = TRat.coerce(_literal("lambda", lam))
    if kind == "family_limit" and lam is None:
        raise CertFormatError("family_limit certificate needs a lambda substitution")
    pre_field = FIELD_LRAT if any("l" in lit for lit in rec.get("pre_change") or []
                                  if isinstance(lit, str)) else FIELD_C8
    return SpecializationCert(
        pre_change=_parse_group_matrix(rec, "pre_change", n, pre_field),
        curve=_parse_curve(rec, n),
        post_change=_parse_group_matrix(rec, "post_change", n, FIELD_C8),
        lambda_sub=lam,
        **common,
    )


def load_cert_file(path_or_name):
    """Load a certificate file; bare names resolve inside the packaged data.

    A file that is not UTF-8 JSON in the layout of data/schema.md raises
    CertFormatError (naming the record index and field), OSError or
    json.JSONDecodeError."""
    if isinstance(path_or_name, str) and "/" not in path_or_name and not path_or_name.endswith(".json"):
        raw = resources.files("superdegen.data").joinpath(path_or_name + ".json").read_bytes()
    else:
        with open(path_or_name, "rb") as fh:
            raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CertFormatError(f"not UTF-8 text (byte {exc.start})") from exc
    data = json.loads(text)
    records = data.get("certs") if isinstance(data, dict) else data
    if not isinstance(records, list):
        raise CertFormatError("certificate file must hold a list of certificates")
    certs = []
    for index, rec in enumerate(records):
        try:
            certs.append(cert_from_record(rec))
        except CertFormatError as exc:
            raise CertFormatError(f"record {index}: {exc}") from exc
    return certs


def verify_cert(cert, catalog: Catalog, underlying=None) -> Outcome:
    if isinstance(cert, ObstructionCert):
        return verify_obstruction(cert, catalog, underlying)
    if cert.is_family_limit:
        return verify_family_limit(cert, catalog)
    return verify_specialization(cert, catalog)


PACKAGED_CERT_FILES = (
    "spec_dim3",
    "spec_dim2",
    "family_limits",
    "obstructions_dim3",
    "obstructions_dim2",
    "obstructions_dim0",
)
