"""Layer tracing from outside the program.

`Tracer.install` wraps public functions and methods of the superdegen
modules.  Modules import names directly (`from .polys import pgcd` in
scalars and tpoly, `from .invariants import stabilizer_dim` in cli and
catalog, ...), so each wrapper replaces every binding of the original
object in every loaded superdegen module and class, not just the one in
the defining module.

Two modes, each used in its own fresh interpreter:

* "spans": inclusive seconds and call counts per wrapped function, plus a
  few counts read from arguments and results.  Work done by those hooks is
  timed and taken out of every enclosing span.
* "counts": bare call counters on the scalar constructors and Cyclo8
  operators, which are called so often that spans around them would
  distort every other number.  No spans run in this mode.
"""

from __future__ import annotations

import re
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (trace name, module, attribute path)
SPANS = (
    ("catalog.load", "superdegen.catalog", "load_catalog"),
    ("literals.parse", "superdegen.literals", "parse_scalar"),
    ("structure.validate", "superdegen.structure", "validate"),
    ("structure.transport", "superdegen.structure", "transport"),
    ("linalg.rank", "superdegen.linalg", "Matrix.rank"),
    ("linalg.determinant", "superdegen.linalg", "Matrix.determinant"),
    ("linalg.inverse", "superdegen.linalg", "Matrix.inverse"),
    ("linalg.kernel_basis", "superdegen.linalg", "Matrix.kernel_basis"),
    ("linalg.solve", "superdegen.linalg", "Matrix.solve"),
    ("invariants.stabilizer_dim", "superdegen.invariants", "stabilizer_dim"),
    ("invariants.fingerprint", "superdegen.invariants", "fingerprint"),
    ("invariants.closed_set", "superdegen.invariants", "closed_set_member"),
    ("polys.pgcd", "superdegen.polys", "pgcd"),
    ("certs.specialization", "superdegen.certs", "verify_specialization"),
    ("certs.family_limit", "superdegen.certs", "verify_family_limit"),
    ("certs.obstruction", "superdegen.certs", "verify_obstruction"),
    ("certs.scaling_cert", "superdegen.certs", "scaling_cert"),
    ("graph.build", "superdegen.graph", "build_graph"),
    ("cli.verify_catalog", "superdegen.cli", "cmd_verify_catalog"),
    ("cli.tables", "superdegen.cli", "cmd_tables"),
    ("cli.check", "superdegen.cli", "cmd_check"),
    ("cli.diagram", "superdegen.cli", "cmd_diagram"),
)
SPAN_COUNTS = (
    ("polys.pdivmod", "superdegen.polys", "pdivmod"),
)
COUNTS = (
    ("scalars.lrat_new", "superdegen.scalars", "LambdaRat.__init__"),
    ("tpoly.trat_new", "superdegen.tpoly", "TRat.__init__"),
    ("cyclo.mul", "superdegen.cyclo", "Cyclo8.__mul__"),
    ("cyclo.add", "superdegen.cyclo", "Cyclo8.__add__"),
    ("cyclo.add", "superdegen.cyclo", "Cyclo8.__sub__"),
    ("cyclo.inverse", "superdegen.cyclo", "Cyclo8.inverse"),
)

# graph.build's self time leaves out the spans of these layers nested in it
BUILD_CHILD_LAYERS = ("certs", "invariants")

# wrappers that must see calls on each workload; any that stays at zero is
# reported by name, so no layer metric reads 0 unnoticed
_COMMON = ("catalog.load", "literals.parse", "structure.validate", "structure.transport",
           "linalg.rank", "linalg.determinant", "linalg.inverse", "linalg.kernel_basis",
           "invariants.stabilizer_dim", "invariants.fingerprint", "invariants.closed_set",
           "cyclo.mul", "cyclo.add", "cyclo.inverse")
EXPECTED = {
    "atlas": _COMMON + ("linalg.solve", "polys.pgcd", "polys.pdivmod", "scalars.lrat_new",
                        "tpoly.trat_new", "certs.specialization", "certs.family_limit",
                        "certs.obstruction", "certs.scaling_cert", "graph.build",
                        "cli.verify_catalog", "cli.tables", "cli.check", "cli.diagram"),
    "fuzz-fixed": _COMMON + ("linalg.solve",),
    "fuzz-family": _COMMON + ("linalg.solve", "polys.pgcd", "polys.pdivmod", "scalars.lrat_new"),
}


def _superdegen_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "superdegen" or name.startswith("superdegen."))]


def _lookup(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def rebind(orig, new) -> int:
    """Replace every binding of `orig` in superdegen modules and their classes."""
    done, seen = 0, set()
    for mod in _superdegen_modules():
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, new)
                done += 1
            elif (isinstance(value, type) and value.__module__.startswith("superdegen")
                  and id(value) not in seen):
                seen.add(id(value))
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is orig:
                        setattr(value, ckey, new)
                        done += 1
    return done


def _key(x):
    try:
        hash(x)
        return x
    except TypeError:
        return str(x)


_NUMBER = re.compile(r"(\^)?(\d+)")
_T_POWER = re.compile(r"t(?:\^(\d+))?")
_L_POWER = re.compile(r"l(?:\^(\d+))?")


def scalar_size(x):
    """(t-degree, l-degree, largest coefficient bit length) read from the
    scalar's printed literal, so it does not depend on the representation."""
    text = str(x)
    degs = [max((int(m.group(1) or 1) for m in rx.finditer(text)), default=0)
            for rx in (_T_POWER, _L_POWER)]
    bits = max((int(m.group(2)).bit_length() for m in _NUMBER.finditer(text) if not m.group(1)),
               default=0)
    return degs[0], degs[1], bits


class Tracer:
    def __init__(self, mode: str):
        self.mode = mode
        self.active = True
        self.calls = Counter()
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.extra = Counter()
        self.maxes = Counter()
        self.stab_keys = set()
        self.scaling_certs = []
        self.hook_s = 0.0
        self.stack = []
        self.depth = Counter()
        self.unwrapped = []

    # ---------------------------------------------------------- installing

    def install(self):
        specs = SPANS + SPAN_COUNTS if self.mode == "spans" else COUNTS
        for name, module, path in specs:
            try:
                orig = _lookup(module, path)
            except (KeyError, AttributeError):
                self.unwrapped.append(f"{module}.{path}")
                continue
            if self.mode == "counts" or (name, module, path) in SPAN_COUNTS:
                new = self._counter(name, orig)
            else:
                new = self._span(name, orig)
            if rebind(orig, new) == 0:
                self.unwrapped.append(f"{module}.{path}")
        return self

    def _counter(self, name, fn):
        calls, tracer = self.calls, self

        def counted(*args, **kwargs):
            if tracer.active:
                calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name
            if before is not None:
                h0 = perf_counter()
                label = before(args, kwargs) or name
                tracer.hook_s += perf_counter() - h0
            tracer.calls[label] += 1
            outer = tracer.depth[label] == 0
            tracer.depth[label] += 1
            children = defaultdict(float)
            tracer.stack.append(children)
            hooks_at_start = tracer.hook_s
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0 - (tracer.hook_s - hooks_at_start)
                tracer.stack.pop()
                tracer.depth[label] -= 1
                if tracer.stack:
                    tracer.stack[-1][label.split(".")[0]] += dt
                if outer:
                    tracer.time[label] += dt
                    if label == "graph.build":
                        tracer.self_time[label] += dt - sum(children[k] for k in BUILD_CHILD_LAYERS)
            if after is not None:
                h0 = perf_counter()
                after(args, result)
                tracer.hook_s += perf_counter() - h0
            return result
        return spanned

    # ---------------------------------------------------------- hooks

    def _before_linalg_rank(self, args, kwargs):
        m = args[0]
        rows = [m.row(r) for r in range(m.rows)]
        self.extra["linalg.rank_rows"] += len(rows)
        useful = {tuple(_key(e) for e in row) for row in rows if any(not e.is_zero() for e in row)}
        self.extra["linalg.rank_rows_useful"] += len(useful)

    def _before_invariants_stabilizer_dim(self, args, kwargs):
        sc = args[0]
        graded = args[1] if len(args) > 1 else kwargs.get("graded", True)
        self.stab_keys.add((graded, tuple(_key(x) for plane in sc.alpha for row in plane for x in row),
                            tuple(_key(x) for row in sc.gamma for x in row)))

    def _before_certs_specialization(self, args, kwargs):
        cert = args[0]
        if any(cert is c for c in self.scaling_certs):
            return "certs.scaling"
        if getattr(cert, "is_family_limit", False):
            return "certs.family_limit_inner"
        return None

    def _after_certs_scaling_cert(self, args, result):
        self.scaling_certs.append(result)

    def _after_polys_pgcd(self, args, result):
        if len(result) > 1:
            self.extra["polys.pgcd_nontrivial"] += 1

    def _after_structure_transport(self, args, sc):
        for x in [x for plane in sc.alpha for row in plane for x in row] + [x for row in sc.gamma for x in row]:
            if x.is_zero():
                continue
            for key, value in zip(("tdeg", "ldeg", "bits"), scalar_size(x)):
                key = "structure.transport_max_" + key
                self.maxes[key] = max(self.maxes[key], value)

    # ---------------------------------------------------------- results

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "time": dict(self.time),
            "self_time": dict(self.self_time),
            "extra": dict(self.extra),
            "maxes": dict(self.maxes),
            "stab_distinct": len(self.stab_keys),
            "hook_s": self.hook_s,
            "unwrapped": self.unwrapped,
        }


def combine(reports):
    """Sum reports of several processes (maxima stay maxima)."""
    out = {"calls": Counter(), "time": Counter(), "self_time": Counter(), "extra": Counter(),
           "maxes": Counter(), "stab_distinct": 0, "hook_s": 0.0, "unwrapped": []}
    for r in reports:
        for key in ("calls", "time", "self_time", "extra"):
            out[key].update(r[key])
        for key, value in r["maxes"].items():
            out["maxes"][key] = max(out["maxes"][key], value)
        out["stab_distinct"] += r["stab_distinct"]
        out["hook_s"] += r["hook_s"]
        out["unwrapped"] += [u for u in r["unwrapped"] if u not in out["unwrapped"]]
    return out


def silent_wrappers(workload: str, spans: dict, counts: dict):
    """Expected wrappers that saw no call, plus any that could not be installed."""
    seen = Counter(spans["calls"]) + Counter(counts["calls"])
    return sorted({n for n in EXPECTED[workload] if not seen[n]}
                  | set(spans["unwrapped"]) | set(counts["unwrapped"]))


def layer_metrics(spans: dict, counts: dict) -> dict:
    """Per-layer metric values: name -> (value, unit)."""
    calls, time, extra = spans["calls"], spans["time"], spans["extra"]
    out = {"catalog.load_s": time.get("catalog.load", 0.0)}

    def span(metric, name, with_calls=True):
        out[f"{metric}_s"] = time.get(name, 0.0)
        if with_calls:
            out[f"{metric}_calls"] = calls.get(name, 0)

    span("literals.parse", "literals.parse")
    span("structure.validate", "structure.validate")
    span("structure.transport", "structure.transport")
    for key in ("tdeg", "ldeg", "bits"):
        out[f"structure.transport_max_{key}"] = spans["maxes"].get(f"structure.transport_max_{key}", 0)
    span("linalg.rank", "linalg.rank")
    out["linalg.rank_rows"] = extra.get("linalg.rank_rows", 0)
    out["linalg.rank_rows_useful"] = extra.get("linalg.rank_rows_useful", 0)
    for name in ("determinant", "inverse", "kernel_basis", "solve"):
        span(f"linalg.{name}", f"linalg.{name}", with_calls=False)
    span("invariants.stabilizer_dim", "invariants.stabilizer_dim")
    out["invariants.stabilizer_dim_distinct"] = spans["stab_distinct"]
    span("invariants.fingerprint", "invariants.fingerprint")
    span("invariants.closed_set", "invariants.closed_set", with_calls=False)
    span("polys.pgcd", "polys.pgcd")
    out["polys.pgcd_nontrivial"] = extra.get("polys.pgcd_nontrivial", 0)
    out["polys.pdivmod_calls"] = calls.get("polys.pdivmod", 0)
    for name in ("scalars.lrat_new", "tpoly.trat_new", "cyclo.mul", "cyclo.add", "cyclo.inverse"):
        out[name] = counts["calls"].get(name, 0)
    for name in ("specialization", "family_limit", "scaling", "obstruction"):
        span(f"certs.{name}", f"certs.{name}")
    out["graph.build_s"] = time.get("graph.build", 0.0)
    out["graph.build_self_s"] = spans["self_time"].get("graph.build", 0.0)
    for name in ("verify_catalog", "tables", "check", "diagram"):
        out[f"cli.{name}_s"] = time.get(f"cli.{name}", 0.0)
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bits"):
        return "bits"
    if metric.endswith(("_tdeg", "_ldeg")):
        return "degree"
    return "count"
