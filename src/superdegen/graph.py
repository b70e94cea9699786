"""Assembly and analysis of the degeneration graph.

Nodes are the catalog's orbits and one-parameter families; edges are the
verified degenerations (direct specializations, family limits, the universal
scaling specializations onto each component's closed orbit, and the
transitive closure).  Verified obstructions are cross-checked against the
edge set; a pair that is both degeneration and obstruction aborts assembly.

Beyond the shipped certificates, pairs are auto-resolved with the same
obstruction methods evaluated on the fly (orbit dimensions and the closed
sets); what remains is reported as either pre-registered undetermined pairs
or pairs whose resolution the classification delegates to external
algebra-level data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .catalog import Catalog
from .certs import VERIFIED, load_cert_file, od_blocks, scaling_cert, verify_cert
from .invariants import closed_set_member, orbit_dim
from .structure import grading_split


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
class Node:
    label: str
    component: int
    orbit_dim: int
    is_family: bool


@dataclass
class DegenerationGraph:
    catalog: Catalog
    nodes: dict
    edges: dict              # (src, tgt) -> tag
    obstructed: dict         # (src, tgt) -> evidence string
    undetermined: list       # pre-registered open pairs (src, tgt)
    external: list           # unresolved pairs deferred to algebra-level data
    contradictions: list
    generic_flags: dict = field(default_factory=dict)

    def component_nodes(self, component):
        return sorted(l for l, nd in self.nodes.items() if nd.component == component)

    def component_edges(self, component):
        return sorted((s, t, tag) for (s, t), tag in self.edges.items()
                      if self.nodes[s].component == component)

    def sources(self, component):
        incoming = {t for (s, t) in self.edges if s != t}
        return [l for l in self.component_nodes(component) if l not in incoming]

    def reaches(self, src, tgt):
        return src == tgt or (src, tgt) in self.edges


def load_undetermined():
    text = resources.files("superdegen.data").joinpath("undetermined.json").read_text("utf-8")
    data = json.loads(text)
    return [(p["source"], p["target"]) for p in data["pairs"]]


def _auto_obstruction(src_label, tgt_label, info):
    """First on-the-fly method separating the pair, or None."""
    s, t = info[src_label], info[tgt_label]
    if od_blocks(s["orbit"], t["orbit"], s["family"]):
        return "OD"
    for m in ("A", "B", "C", "D", "E"):
        sm, tm = s["sets"].get(m), t["sets"].get(m)
        if sm is True and tm is False:
            return m
    return None


def build_graph(catalog: Catalog, specs, family_limits, obstructions,
                undetermined_pairs, underlying=None) -> DegenerationGraph:
    """Assemble the graph from certificates.  Every certificate is verified
    here; one that fails although its record expects success is rejected."""
    info = {}
    nodes = {}
    for e in catalog.entries.values():
        nd = Node(e.label, e.component, orbit_dim(e.sc), e.parametric)
        nodes[e.label] = nd
        split = grading_split(e.sc)
        sets = {"A": closed_set_member(e.sc, "A", split), "B": closed_set_member(e.sc, "B", split)}
        if e.component == 2:
            for m in ("C", "D", "E"):
                sets[m] = closed_set_member(e.sc, m, split)
        info[e.label] = {"orbit": nd.orbit_dim, "family": e.parametric, "sets": sets}

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
        outcome = verify_cert(cert, catalog, underlying)
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
    for s, nd_s in nodes.items():
        for t, nd_t in nodes.items():
            if s == t or nd_s.component != nd_t.component:
                continue
            if (s, t) in edges or (s, t) in obstructed:
                continue
            m = _auto_obstruction(s, t, info)
            if m is not None:
                obstructed[(s, t)] = f"auto ({m})"
            elif underlying is not None and underlying.get((catalog.entry(s).family,
                                                            catalog.entry(t).family)):
                obstructed[(s, t)] = "underlying table"
            elif (s, t) in registered:
                undetermined.append((s, t))
            else:
                external.append((s, t))

    graph = DegenerationGraph(
        catalog=catalog,
        nodes=nodes,
        edges=edges,
        obstructed=obstructed,
        undetermined=sorted(undetermined),
        external=sorted(external),
        contradictions=[],
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


def generic_structures(graph: DegenerationGraph, component: int, underlying=None):
    """Source nodes of the component with their confirmation flags; the
    trivially graded component is asserted data unless an algebra-level
    table is supplied, since its internal edges live outside this package."""
    if component == 4 and underlying is None:
        return [(label, "external-data") for label in ASSERTED_GENERIC[4]]
    return [(label, graph.generic_flags.get(label, "confirmed")) for label in graph.sources(component)]


def load_default_graph(catalog: Catalog, underlying=None) -> DegenerationGraph:
    specs = load_cert_file("spec_dim3") + load_cert_file("spec_dim2")
    fams = load_cert_file("family_limits")
    obstructions = (load_cert_file("obstructions_dim3") + load_cert_file("obstructions_dim2")
                    + load_cert_file("obstructions_dim0"))
    return build_graph(catalog, specs, fams, obstructions, load_undetermined(), underlying)


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
        shape = "ellipse" if not nd.is_family else "box"
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


def json_diagram(graph: DegenerationGraph, component: int, underlying=None) -> dict:
    nodes = []
    for l in graph.component_nodes(component):
        nd = graph.nodes[l]
        nodes.append({"label": l, "orbit_dim": nd.orbit_dim, "family": nd.is_family})
    edges = [{"source": s, "target": t, "kind": tag}
             for (s, t, tag) in graph.component_edges(component)]
    out = {
        "component": component,
        "nodes": nodes,
        "edges": edges,
        "sources": graph.sources(component),
        "generic": [{"label": l, "flag": f} for l, f in generic_structures(graph, component, underlying)],
        "undetermined": [{"source": s, "target": t} for (s, t) in graph.undetermined
                         if graph.nodes[s].component == component],
        "external": [{"source": s, "target": t} for (s, t) in graph.external
                     if graph.nodes[s].component == component],
    }
    if component == 4 and underlying is None:
        out["note"] = "internal degenerations of this component are deferred to external algebra-level data"
    return out
