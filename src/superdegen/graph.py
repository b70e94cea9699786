"""Assembly and analysis of the degeneration graph.

Nodes are the catalog entries, orbits and one-parameter families; edges are
the verified degenerations (direct specializations, family limits, the
universal scaling specializations onto each component's closed orbit, and
the transitive closure).  Verified obstructions are cross-checked against
the edge set; a pair that is both degeneration and obstruction aborts
assembly.

Beyond the shipped certificates, pairs are auto-resolved by the rule the
obstruction certificates use, `certs.separates`: orbit dimensions first,
then the closed sets of the source's table in the order A..E.  Each entry
builds its table once (`CatalogEntry.closed_sets`), so the certificates and
the graph share it.  What remains is reported as either pre-registered
undetermined pairs or pairs whose resolution the classification delegates
to external algebra-level data, which no caller can supply.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .catalog import Catalog, CatalogEntry
from .certs import VERIFIED, load_cert_file, scaling_cert, separates, verify_cert


class ContradictionFound(Exception):
    def __init__(self, contradictions):
        self.contradictions = contradictions
        super().__init__(f"{len(contradictions)} pair(s) are both degeneration and obstruction: "
                         + ", ".join(f"{s}->{t}" for s, t, _, _ in contradictions))


class UnverifiedCert(ValueError):
    pass


# generic structures asserted by the classification, per component
ASSERTED_GENERIC = {
    4: ("(1|0)", "(10|0)", "(13|0)", "(17|0)", "(18;l|0)"),
    3: ("(1|1)", "(11|1)", "(13|1)", "(14|1)", "(15|1)", "(17|1)"),
    2: ("(1|2)", "(10|1)", "(11|3)", "(14|3)", "(15|3)", "(17|2)", "(18;l|1)", "(18;l|2)"),
    1: ("(9|3)",),
}

EDGE_ORDER = {"specialization": 0, "family-limit": 1, "scaling": 2, "transitive": 3}


@dataclass
class DegenerationGraph:
    catalog: Catalog
    edges: dict              # (src, tgt) -> tag
    obstructed: dict         # (src, tgt) -> evidence string
    undetermined: list       # pre-registered open pairs (src, tgt)
    external: list           # unresolved pairs deferred to algebra-level data
    generic_flags: dict = field(default_factory=dict)

    @property
    def nodes(self):
        """label -> catalog entry"""
        return self.catalog.entries

    def component_nodes(self, component):
        return sorted(l for l, nd in self.nodes.items() if nd.component == component)

    def component_edges(self, component):
        return sorted((s, t, tag) for (s, t), tag in self.edges.items()
                      if self.nodes[s].component == component)

    def sources(self, component):
        incoming = {t for (s, t) in self.edges if s != t}
        return [l for l in self.component_nodes(component) if l not in incoming]


def load_undetermined():
    text = resources.files("superdegen.data").joinpath("undetermined.json").read_text("utf-8")
    data = json.loads(text)
    return [(p["source"], p["target"]) for p in data["pairs"]]


def _auto_obstruction(src: CatalogEntry, tgt: CatalogEntry):
    """First on-the-fly method separating the pair (OD, then the closed sets
    of the source's table in the order A..E), or None."""
    if separates("OD", src, tgt):
        return "OD"
    return next((m for m in src.closed_sets if separates(m, src, tgt)), None)


def build_graph(catalog: Catalog, specs, family_limits, obstructions,
                undetermined_pairs) -> DegenerationGraph:
    """Assemble the graph from certificates.  Every certificate is verified
    here; one that fails although its record expects success is rejected."""
    edges = {}

    def add_edge(s, t, tag):
        if s == t:
            return
        old = edges.get((s, t))
        if old is None or EDGE_ORDER[tag] < EDGE_ORDER[old]:
            edges[(s, t)] = tag

    for cert in list(specs) + list(family_limits):
        outcome = verify_cert(cert, catalog)
        if outcome.verified:
            add_edge(cert.source, cert.target, "family-limit" if cert.is_family_limit else "specialization")
        elif cert.expected == VERIFIED:
            raise UnverifiedCert(f"{cert.describe()}: {outcome}")
    for label in catalog.labels():
        cert = scaling_cert(label, catalog)
        if cert.source == cert.target:
            continue
        outcome = verify_cert(cert, catalog)
        if not outcome.verified:
            raise UnverifiedCert(f"{cert.describe()}: {outcome}")
        add_edge(cert.source, cert.target, "scaling")

    # transitive closure (closure of an orbit contains the closures of its degenerations)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(edges):
            for (c, d) in list(edges):
                if b == c and a != d and (a, d) not in edges:
                    edges[(a, d)] = "transitive"
                    changed = True

    obstructed = {}
    for cert in obstructions:
        outcome = verify_cert(cert, catalog)
        if outcome.verified:
            obstructed[(cert.source, cert.target)] = f"certificate ({cert.method})"
        elif cert.expected == VERIFIED:
            raise UnverifiedCert(f"{cert.describe()}: {outcome}")

    contradictions = [(s, t, tag, obstructed[(s, t)])
                      for (s, t), tag in edges.items() if (s, t) in obstructed]
    if contradictions:
        raise ContradictionFound(contradictions)

    registered = set(undetermined_pairs)
    undetermined, external = [], []
    for s, nd_s in catalog.entries.items():
        for t, nd_t in catalog.entries.items():
            if s == t or nd_s.component != nd_t.component:
                continue
            if (s, t) in edges or (s, t) in obstructed:
                continue
            m = _auto_obstruction(nd_s, nd_t)
            if m is not None:
                obstructed[(s, t)] = f"auto ({m})"
            elif (s, t) in registered:
                undetermined.append((s, t))
            else:
                external.append((s, t))

    graph = DegenerationGraph(
        catalog=catalog,
        edges=edges,
        obstructed=obstructed,
        undetermined=sorted(undetermined),
        external=sorted(external),
    )
    graph.generic_flags = _flag_generics(graph, registered)
    return graph


def _flag_generics(graph: DegenerationGraph, registered):
    """Source nodes flagged by how their potential in-edges are resolved:
    'confirmed' when every candidate is obstructed by verified evidence,
    'undetermined' when a pre-registered open pair points at the node,
    'paper' when resolution rests on external algebra-level data."""
    flags = {}
    for comp in (1, 2, 3, 4):
        for label in graph.sources(comp):
            pend_open = pend_ext = False
            for other in graph.component_nodes(comp):
                if other == label:
                    continue
                pair = (other, label)
                if pair in graph.obstructed:
                    continue
                if pair in registered:
                    pend_open = True
                else:
                    pend_ext = True
            flags[label] = "undetermined" if pend_open else ("paper" if pend_ext else "confirmed")
    return flags


def generic_structures(graph: DegenerationGraph, component: int):
    """Source nodes of the component with their confirmation flags; the
    trivially graded component is asserted data, since its internal edges
    live outside this package."""
    if component == 4:
        return [(label, "external-data") for label in ASSERTED_GENERIC[4]]
    return [(label, graph.generic_flags.get(label, "confirmed")) for label in graph.sources(component)]


def load_default_graph(catalog: Catalog) -> DegenerationGraph:
    def shipped(*names):  # the packaged certificate files hold 4-dimensional data
        return [cert for name in names for cert in load_cert_file(name, 4)]

    return build_graph(catalog, shipped("spec_dim3", "spec_dim2"), shipped("family_limits"),
                       shipped("obstructions_dim3", "obstructions_dim2", "obstructions_dim0"), load_undetermined())


# ------------------------------------------------------------- emission

def _display_edges(graph: DegenerationGraph, component: int):
    """Direct edges minus those implied by other direct edges (keeps diagrams readable)."""
    direct = [(s, t) for (s, t, tag) in graph.component_edges(component) if tag != "transitive"]
    keep = []
    direct_set = set(direct)
    for (s, t) in direct:
        redundant = any((s, m) in direct_set and (m, t) in graph.edges and m not in (s, t)
                        for m in graph.component_nodes(component))
        if not redundant:
            keep.append((s, t))
    return keep


def dot_diagram(graph: DegenerationGraph, component: int) -> str:
    lines = ["digraph degenerations {"]
    lines.append('  rankdir=TB;')
    lines.append(f'  label="component with even part of dimension {component}";')
    if component == 4:
        lines.append('  labelloc="t"; // internal edges deferred to the algebra-level classification')
    nodes = graph.component_nodes(component)
    by_dim = {}
    for l in nodes:
        by_dim.setdefault(graph.nodes[l].orbit_dim, []).append(l)
    for dim in sorted(by_dim, reverse=True):
        members = " ".join(f'"{l}"' for l in sorted(by_dim[dim]))
        lines.append(f"  {{ rank=same; {members} }}")
    for l in nodes:
        nd = graph.nodes[l]
        shape = "ellipse" if not nd.parametric else "box"
        lines.append(f'  "{l}" [shape={shape}, label="{l}\\ndim {nd.orbit_dim}"];')
    for (s, t) in _display_edges(graph, component):
        tag = graph.edges[(s, t)]
        style = "dashed" if tag == "family-limit" else "solid"
        lines.append(f'  "{s}" -> "{t}" [style={style}];')
    for (s, t) in graph.undetermined:
        if graph.nodes[s].component == component:
            lines.append(f'  "{s}" -> "{t}" [style=dotted, constraint=false];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_diagram(graph: DegenerationGraph, component: int) -> dict:
    nodes = []
    for l in graph.component_nodes(component):
        nd = graph.nodes[l]
        nodes.append({"label": l, "orbit_dim": nd.orbit_dim, "family": nd.parametric})
    edges = [{"source": s, "target": t, "kind": tag}
             for (s, t, tag) in graph.component_edges(component)]
    out = {
        "component": component,
        "nodes": nodes,
        "edges": edges,
        "sources": graph.sources(component),
        "generic": [{"label": l, "flag": f} for l, f in generic_structures(graph, component)],
        "undetermined": [{"source": s, "target": t} for (s, t) in graph.undetermined
                         if graph.nodes[s].component == component],
        "external": [{"source": s, "target": t} for (s, t) in graph.external
                     if graph.nodes[s].component == component],
    }
    if component == 4:
        out["note"] = "internal degenerations of this component are deferred to external algebra-level data"
    return out
