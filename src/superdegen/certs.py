"""Degeneration certificates and their machine verification.

A specialization certificate witnesses a degeneration: a constant change to
the working basis (pre_change), a t-dependent basis curve, and an optional
constant change on the target side (post_change) absorbing the discrepancy
between the arrival basis and the target's catalog basis.  Verification
transports the source constants along the composed curve, demands that the
composed curve be generically invertible, that every transported constant
be regular at t = 0, and that the limit equal the target constants exactly.

Each transported constant is read as N / det g, with the numerator N from
the adjugate of the composed curve g (`structure.moved_numerators`): it is
regular at t = 0 when ord N >= k = ord det g, with limit N[k] / det[k]
(lowest terms of the expansions at 0, when l := p/q puts t in a
denominator).  N / det g is reduced only for the detail string of a pole.

The t-image.  With no parameter substituted, and rational constants in the
source, the pre-change and the coefficients of the curve, stage (ii) runs
on ints (`_t_image`).  With D the common denominator of the
source constants, A = D alpha and C = D gamma are ints; with Dg that of
the pre-change times that of the curve, G = Dg g is a matrix of int
polynomials in t, of at most e coefficients each, all at most c in size.
Then g^-1 = Dg adj(G) / det G, so alpha' = N / (Dg det(G) D) with N the
contraction of A with G, G and adj(G), and gamma' = M / (det(G) D) with
M = adj(G) C G.  An entry of adj(G) sums (n-1)! products of n-1 entries of
G, and one of N sums n^3 products of two entries of G, one of adj(G) and
one of A, so with m the largest size in A and C every coefficient of N, M
and det G is below H = n^3 (n-1)! m e^n c^(n+1).  Each entry of G is
evaluated at t0 = 2^b with 2^(b-1) > H (Kronecker substitution; D. Harvey,
J. Symb. Comp. 44, 2009), and `linalg.adjugate` and `structure._moved` run
on the Python ints G(t0).  The image v of a polynomial whose coefficients
lie below 2^(b-1) in size holds them as its signed base-2^b digits: its
order at t = 0 is the number of trailing zero bits of v divided by b, and
its lowest coefficient the signed digit there.  The limit is then
N[k] / (det[k] Dg D) or M[k] / (det[k] D).  A pole's detail string decodes
all digits.  As det G(t0) = det P det C(t0), with P and C the int pre-change
and curve, a nonzero det G(t0) also shows that the curve is generically
invertible, and its determinant over Q(z)(l)(t) is not taken.  Other
certificates (a z-part, a family source, an l-dependent pre-change, a
substituted parameter) run over Q(z)(l)(t).

Compare first.  When the expected point is validated (a catalog entry, a
substituted family member, or the target moved by the post-change, which
`transport` revalidates), a limit equal to it has its constants, so it
satisfies the defining equations and is VERIFIED without a check of its
own.  Otherwise the limit's equations are checked, and the stages and
detail strings follow the order limit, post-change, mismatch.

A family-limit certificate additionally substitutes a t-rational function
for the family parameter before running the same pipeline, witnessing that
the target lies in the closure of the union of the family's orbits.  The
pre-change and the source constants are carried over by
`LambdaRat.substitute`; a pole there, as of 1/(l-2) at l := 2, is the
verdict not_verified[substitution].

An obstruction certificate claims a NON-degeneration by one of the methods:
  OD    orbit dimension does not drop
  A..E  a closed transport-stable set contains the source but not the target
  DIM0  the even-part dimensions differ
  UNDERLYING  the underlying algebras do not degenerate; always UNSUPPORTED,
              as it needs an external table that no caller can supply
`separates` decides OD and A..E, here and for the pairs the graph
resolves on the fly; the closed sets are read from each catalog entry's
table, built once (`CatalogEntry.closed_sets`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from importlib import resources
from math import factorial

from .catalog import FORBIDDEN_LAMBDA, Catalog, CatalogEntry, UnknownLabel
from .invariants import WrongComponent
from .linalg import FIELD_C8, FIELD_LRAT, FIELD_TRAT, Matrix, adjugate, integer_polys
from .cyclo import C8_ZERO, Cyclo8
from .literals import ParseError, parse_scalar
from .polys import porder
from .scalars import LambdaRat
from .structure import (NotInGroup, StructureConstants, _moved, group_element, moved_numerators, transport,
                        validate)
from .tpoly import TRat

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


def _lowest(x: TRat):
    """The lowest coefficient of the expansion of the nonzero x at t = 0."""
    lead = x.num[porder(x.num)]
    return lead if x.is_tpoly() else lead / x.den[porder(x.den)]


def _t_image(cert: SpecializationCert, sc: StructureConstants):
    """Stage (ii) on the integer image at t0 = 2^b (module docstring):
    (b, N, M, det G, Dg * D, D) as ints, or None unless no parameter is
    substituted and the constants of sc and of the pre-change, and the
    coefficients of the curve, are rational."""
    n, pre = sc.n, cert.pre_change
    if cert.lambda_sub is not None or sc.field is not FIELD_C8 or (pre is not None and pre.field is not FIELD_C8) \
            or any(type(c) is not Cyclo8 for x in cert.curve.entries for c in x.num):
        return None
    point = integer_polys([[x for plane in sc.alpha for row in plane for x in row],
                           [x for row in sc.gamma for x in row]])
    curve = integer_polys([x.num for x in cert.curve.entries])
    change = (1, [None]) if pre is None else integer_polys([pre.entries])
    if point is None or curve is None or change is None:
        return None
    (den, (a, c)), (dc, polys), (dp, (p,)) = point, curve, change
    # G = P C has coefficients at most n max|P| max|C|, or max|C| without P
    top = max(abs(x) for q in polys for x in q) * (1 if p is None else n * max(map(abs, p)))
    m = max(1, *map(abs, a), *map(abs, c))
    b = (n ** 3 * factorial(n - 1) * m * max(map(len, polys)) ** n * top ** (n + 1)).bit_length() + 1
    c0 = [sum(x << b * k for k, x in enumerate(q)) for q in polys]
    c0 = [c0[r * n:(r + 1) * n] for r in range(n)]
    g0 = c0 if p is None else [[sum(p[r * n + k] * c0[k][col] for k in range(n)) for col in range(n)]
                               for r in range(n)]
    adj, det = adjugate(g0)
    terms = [[{k: v for k in range(n) if (v := a[(i * n + j) * n + k])} for j in range(n)] for i in range(n)]
    nums, gnums = _moved(terms, [c[r * n:(r + 1) * n] for r in range(n)], g0, adj, 0)
    return b, nums, gnums, det, dp * dc * den, den


def _int_order(b: int, v: int) -> int:
    """ord_t of the nonzero polynomial whose image at 2^b is v."""
    return ((v & -v).bit_length() - 1) // b


def _digit(b: int, v: int) -> int:
    """The signed base-2^b digit of v at place 0."""
    d = v & ((1 << b) - 1)
    return d - (1 << b) if d >> (b - 1) else d


def _int_lowest(b: int, v: int) -> Cyclo8:
    """The lowest coefficient of the nonzero polynomial whose image at 2^b is v."""
    return Cyclo8(_digit(b, v >> b * _int_order(b, v)))


def _decoded(b: int, v: int) -> TRat:
    """The polynomial in t whose image at 2^b is v: its signed digits."""
    coeffs = []
    while v:
        coeffs.append(_digit(b, v))
        v = (v - coeffs[-1]) >> b
    return TRat([Cyclo8(x) for x in coeffs])


def verify_specialization(cert: SpecializationCert, catalog: Catalog) -> Outcome:
    """Run the three verification stages on the catalog's constants."""
    try:
        src, tgt = catalog.get(cert.source), catalog.get(cert.target)
    except UnknownLabel as exc:
        return Outcome(NOT_VERIFIED, "labels", str(exc))
    return _verify(cert, src, tgt)


def _verify(cert: SpecializationCert, src: StructureConstants, tgt: StructureConstants) -> Outcome:
    """The three stages, from src to tgt."""
    n = src.n
    lam, conv = cert.lambda_sub, TRat.coerce
    if lam is not None:
        if lam.is_constant() and any(lam.constant_value() == bad for bad in FORBIDDEN_LAMBDA):
            return Outcome(NOT_VERIFIED, "substitution",
                           "the substituted parameter is identically an excluded value")
        conv = lambda x: LambdaRat.coerce(x).substitute(lam)
    # structural checks on the curve itself
    one = FIELD_TRAT.one
    zero = FIELD_TRAT.zero
    first = cert.curve.column(0)
    if list(first) != [one] + [zero] * (n - 1):
        return Outcome(NOT_VERIFIED, "curve", "curve must fix the unit (first column e_1)")
    for e in cert.curve.entries:
        if not e.is_tpoly():
            return Outcome(NOT_VERIFIED, "curve", f"curve entry {e} is not polynomial in t")
    image = _t_image(cert, src)  # a nonzero det G(t0) shows det C != 0 (module docstring)
    if (image is None or not image[3]) and cert.curve.determinant().is_zero():
        return Outcome(NOT_VERIFIED, "curve-not-generic", "det of the basis curve vanishes identically")
    # stage (i): composed curve generically in the basis-change group
    pre = cert.pre_change
    if pre is not None:
        try:
            group_element(pre)
        except NotInGroup as exc:
            return Outcome(NOT_VERIFIED, "pre-change", str(exc))
    # stage (ii): transport and regularity at t = 0 (module docstring)
    if image is None:
        # with no parameter substituted, moved_numerators lifts src itself
        try:
            lifted = None if pre is None else pre.map_entries(conv, FIELD_TRAT)
            if lam is not None:
                src = StructureConstants(n, [[[conv(x) for x in row] for row in plane] for plane in src.alpha],
                                         [[conv(x) for x in row] for row in src.gamma], FIELD_TRAT)
        except ZeroDivisionError as exc:
            return Outcome(NOT_VERIFIED, "substitution", str(exc))
        composed = cert.curve if lifted is None else lifted * cert.curve
        nums, gnums, det = moved_numerators(composed, src, FIELD_TRAT)
        scales, order, lowest, decoded = (1, 1), TRat.order_at_zero, _lowest, TRat.coerce
    else:
        b, nums, gnums, det, *scales = image
        order, lowest, decoded = partial(_int_order, b), partial(_int_lowest, b), partial(_decoded, b)
    if not det:
        return Outcome(NOT_VERIFIED, "curve-not-generic", "composed curve is singular for all t")
    k, low = order(det), lowest(det)
    cells = [(0, (i, j, c), nums[i][j].get(c)) for i in range(n) for j in range(n) for c in range(n)]
    cells += [(1, (r, c), gnums[r][c]) for r in range(n) for c in range(n)]
    dens = [low * scale for scale in scales]
    values = []
    for block, idx, num in cells:
        if num and order(num) < k:
            where = "".join(f"[{x + 1}]" for x in idx)
            ratio = decoded(num) / (decoded(det) * scales[block])
            return Outcome(NOT_VERIFIED, "regularity",
                           f"{('alpha', 'gamma')[block]}{where} = {ratio} has a pole at t = 0")
        values.append(lowest(num) / dens[block] if num and order(num) == k else C8_ZERO)
    # stage (iii): exact match against the target constants, compared first
    # (module docstring)
    expected, failed = tgt, None
    if cert.post_change is not None:
        try:
            expected = transport(cert.post_change, tgt)
        except NotInGroup as exc:
            failed = exc
    if failed is None and expected.validated and values == [
            x for part in (*expected.alpha, expected.gamma) for row in part for x in row]:
        return Outcome(VERIFIED)
    limit_alpha = [[values[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    limit_gamma = [values[n ** 3 + r * n:n ** 3 + (r + 1) * n] for r in range(n)]
    field = FIELD_LRAT if any(isinstance(x, LambdaRat) for x in values[:n ** 3]) else FIELD_C8
    limit = StructureConstants(n, limit_alpha, limit_gamma, field)
    try:
        validate(limit)
    except Exception as exc:
        return Outcome(NOT_VERIFIED, "limit", f"limit point violates the defining equations: {exc}")
    if failed is not None:
        return Outcome(NOT_VERIFIED, "post-change", str(failed))
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


def separates(method: str, src: CatalogEntry, tgt: CatalogEntry) -> bool:
    """Whether `method` rules out a degeneration src -> tgt of one component.
    OD: the orbit dimension does not drop; a one-parameter family may
    degenerate onto an orbit of the same dimension as its members, so a
    family source needs a strict drop.  A..E: the closed set holds the
    source and not the target (the entries' tables, `closed_sets`)."""
    if method == "OD":
        d_src, d_tgt = src.orbit_dim, tgt.orbit_dim
        return d_src < d_tgt if src.parametric else d_src <= d_tgt
    if method not in src.closed_sets:
        raise WrongComponent(f"set ({method}) is defined on the component with a 2-dimensional even part")
    return src.closed_sets[method] and not tgt.closed_sets[method]


def verify_obstruction(cert: ObstructionCert, catalog: Catalog) -> Outcome:
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
        return Outcome(UNSUPPORTED, "underlying", "no external algebra-degeneration table supplied")
    if cert.method == "OD":
        if cert.source == cert.target:
            return Outcome(NOT_VERIFIED, "orbit-dim", "trivial pair")
        if separates("OD", src_entry, tgt_entry):
            return Outcome(VERIFIED)
        d_src, d_tgt = src_entry.orbit_dim, tgt_entry.orbit_dim
        return Outcome(NOT_VERIFIED, "orbit-dim",
                       f"orbit dimensions {d_src} -> {d_tgt} leave room for a degeneration")
    try:
        if separates(cert.method, src_entry, tgt_entry):
            return Outcome(VERIFIED)
        in_src, in_tgt = src_entry.closed_sets[cert.method], tgt_entry.closed_sets[cert.method]
    except Exception as exc:
        return Outcome(NOT_VERIFIED, "closed-set", str(exc))
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


def _literal(key, lit, parsed):
    """The scalar of lit, parsed once per file: `parsed` maps the file's literals read so far to theirs."""
    if lit not in parsed:
        try:
            parsed[lit] = parse_scalar(lit)
        except (ParseError, ZeroDivisionError) as exc:
            raise CertFormatError(f"field {key!r}: bad literal {lit!r}: {exc}") from exc
    return parsed[lit]


def _literals(rec, key, n, parsed):
    """The n*n scalar literals of a matrix field, or None when it is absent."""
    lits = _field(rec, key, list, None)
    if lits is None:
        return None
    if len(lits) != n * n:
        raise CertFormatError(f"field {key!r}: needs {n * n} literals, got {len(lits)}")
    if not all(isinstance(lit, str) for lit in lits):
        raise CertFormatError(f"field {key!r}: every entry must be a string literal")
    return [_literal(key, lit, parsed) for lit in lits]


def _parse_group_matrix(rec, key, n, field, parsed):
    values = _literals(rec, key, n, parsed)
    if values is None:
        return None
    entries = []
    for lit, v in zip(rec[key], values):
        try:
            entries.append(field.lift(v))
        except TypeError as exc:
            raise CertFormatError(f"field {key!r}: entry {lit!r} does not lie in {field.name}") from exc
    return Matrix(n, n, entries, field)


def _parse_curve(rec, n, parsed):
    values = _literals(rec, "curve", n, parsed)
    if values is None:
        return Matrix.identity(n, FIELD_TRAT)
    entries = [TRat.coerce(v) for v in values]
    for lit, v in zip(rec["curve"], entries):
        if not v.is_tpoly():
            raise CertFormatError(f"field 'curve': entry {lit!r} is not polynomial in t")
    return Matrix(n, n, entries, FIELD_TRAT)


def cert_from_record(rec: dict, n: int = 4, parsed=None):
    """One certificate from its JSON record; CertFormatError names the field
    of any record that does not follow data/schema.md; `parsed` as in `_literal`."""
    parsed = {} if parsed is None else parsed
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
        lam = TRat.coerce(_literal("lambda", lam, parsed))
    if kind == "family_limit" and lam is None:
        raise CertFormatError("family_limit certificate needs a lambda substitution")
    pre_field = FIELD_LRAT if any("l" in lit for lit in rec.get("pre_change") or []
                                  if isinstance(lit, str)) else FIELD_C8
    return SpecializationCert(
        pre_change=_parse_group_matrix(rec, "pre_change", n, pre_field, parsed),
        curve=_parse_curve(rec, n, parsed),
        post_change=_parse_group_matrix(rec, "post_change", n, FIELD_C8, parsed),
        lambda_sub=lam,
        **common,
    )


def load_cert_file(path_or_name):
    """Load a certificate file; bare names resolve inside the packaged data.

    A file that is not UTF-8 JSON in the layout of data/schema.md raises
    CertFormatError (naming the record index and field), OSError or
    json.JSONDecodeError.  Each distinct literal is parsed once per file."""
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
    certs, parsed = [], {}
    for index, rec in enumerate(records):
        try:
            certs.append(cert_from_record(rec, parsed=parsed))
        except CertFormatError as exc:
            raise CertFormatError(f"record {index}: {exc}") from exc
    return certs


def verify_cert(cert, catalog: Catalog) -> Outcome:
    if isinstance(cert, ObstructionCert):
        return verify_obstruction(cert, catalog)
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
