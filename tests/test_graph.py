from collections import Counter

import pytest

import superdegen.catalog as catalog_module
import superdegen.graph as graph_module
from superdegen.catalog import CLOSED_ORBIT_LABEL, load_catalog
from superdegen.certs import NOT_VERIFIED, VERIFIED, ObstructionCert, Outcome, cert_from_record, load_cert_file
from superdegen.graph import (ASSERTED_GENERIC, ContradictionFound, UnverifiedCert, build_graph, dot_diagram,
                              generic_structures, json_diagram, load_default_graph, load_undetermined)


def test_sources_match_the_classification(graph):
    assert graph.sources(1) == ["(9|3)"]
    assert sorted(graph.sources(3)) == sorted(ASSERTED_GENERIC[3])
    expected2 = sorted(ASSERTED_GENERIC[2] + ("(6|2)", "(19|1)"))
    assert sorted(graph.sources(2)) == expected2


def test_generic_flags(graph):
    flags2 = dict(generic_structures(graph, 2))
    assert flags2["(6|2)"] == "undetermined"
    assert flags2["(19|1)"] == "undetermined"
    for label in ASSERTED_GENERIC[2]:
        assert flags2[label] in ("confirmed", "paper")
    flags3 = dict(generic_structures(graph, 3))
    assert all(f in ("confirmed", "paper") for f in flags3.values())
    assert dict(generic_structures(graph, 1)) == {"(9|3)": "confirmed"}


def test_component4_is_asserted_data(graph):
    gen4 = generic_structures(graph, 4)
    assert [l for l, _ in gen4] == list(ASSERTED_GENERIC[4])
    assert all(flag == "external-data" for _, flag in gen4)


def test_twenty_generic_structures(graph):
    total = 0
    for comp in (1, 2, 3, 4):
        total += sum(1 for _, flag in generic_structures(graph, comp) if flag != "undetermined")
    assert total == 20


def test_undetermined_pairs_are_the_registered_ones(graph):
    assert sorted(load_undetermined()) == graph.undetermined
    comp2 = [(s, t) for (s, t) in graph.undetermined if graph.nodes[s].component == 2]
    assert len(comp2) == 6
    comp3 = [(s, t) for (s, t) in graph.undetermined if graph.nodes[s].component == 3]
    assert comp3 == [("(2|2)", "(6|1)")]


def test_every_node_reaches_the_closed_orbit(graph):
    for label, node in graph.nodes.items():
        target = CLOSED_ORBIT_LABEL[node.component]
        assert label == target or (label, target) in graph.edges, label


def test_edges_stay_within_components(graph):
    for (s, t) in graph.edges:
        assert graph.nodes[s].component == graph.nodes[t].component


def test_orbit_dimension_drops_along_edges(graph):
    for (s, t), tag in graph.edges.items():
        ns, nt = graph.nodes[s], graph.nodes[t]
        if ns.parametric:
            assert ns.orbit_dim >= nt.orbit_dim, (s, t, tag)
        else:
            assert ns.orbit_dim > nt.orbit_dim, (s, t, tag)


def test_no_edge_between_same_algebra_gradings(graph):
    # empirical check: no verified degeneration connects two different
    # gradings of one underlying algebra
    for (s, t) in graph.edges:
        fam_s = s.split("|")[0]
        fam_t = t.split("|")[0]
        assert fam_s != fam_t, (s, t)


def test_contradiction_aborts(catalog, monkeypatch):
    # (7|1) -> (8|1) is a verified edge; an obstruction of the same pair that
    # counts as verified must abort assembly
    specs = load_cert_file("spec_dim3", 4) + load_cert_file("spec_dim2", 4)
    fams = load_cert_file("family_limits", 4)
    bogus = ObstructionCert("(7|1)", "(8|1)", "UNDERLYING")
    real = graph_module.verify_cert
    monkeypatch.setattr(graph_module, "verify_cert",
                        lambda cert, cat: Outcome(VERIFIED) if cert is bogus else real(cert, cat))
    with pytest.raises(ContradictionFound):
        build_graph(catalog, specs, fams, [bogus], load_undetermined())


_POLE = {"kind": "family_limit", "source": "(18;l|1)", "target": "(16|1)", "lambda": "2",
         "pre_change": ["1", "0", "0", "0", "0", "1/(l-2)", "0", "0", "0", "0", "1", "0", "0", "0", "0", "1"]}


@pytest.mark.parametrize("specs, family_limits, obstructions, message", [
    ([{"kind": "specialization", "source": "(9|1)", "target": "(9|2)"}], [], [],
     "(9|1) -> (9|2): not_verified[limit-mismatch]: involution constants differ at t = 0"),
    ([], [_POLE], [], "(18;l|1) ~> (16|1): not_verified[substitution]: (1)/(-2+l) has a pole at l = 2"),
    ([], [], [{"kind": "obstruction", "source": "(9|1)", "target": "(9|1)", "method": "OD"}],
     "(9|1) -/-> (9|1) (OD): not_verified[orbit-dim]: trivial pair"),
], ids=("specialization", "family-limit", "obstruction"))
def test_a_failed_certificate_recorded_as_verified_aborts(catalog, specs, family_limits, obstructions, message):
    specs, family_limits, obstructions = ([cert_from_record(r, n=4) for r in recs]
                                          for recs in (specs, family_limits, obstructions))
    with pytest.raises(UnverifiedCert) as info:
        build_graph(catalog, specs, family_limits, obstructions, [])
    assert str(info.value) == message


def test_a_failed_scaling_certificate_aborts(catalog, monkeypatch):
    # no scaling certificate of a valid catalog fails, so one is made to
    real = graph_module.verify_cert
    monkeypatch.setattr(graph_module, "verify_cert", lambda cert, cat: (
        Outcome(NOT_VERIFIED, "regularity", "made to fail") if cert.name == "scaling (7|1) -> (9|1)"
        else real(cert, cat)))
    with pytest.raises(UnverifiedCert) as info:
        build_graph(catalog, [], [], [], [])
    assert str(info.value) == "scaling (7|1) -> (9|1): not_verified[regularity]: made to fail"


def test_dot_and_json_are_deterministic(graph):
    d1, d2 = dot_diagram(graph, 3), dot_diagram(graph, 3)
    assert d1 == d2
    assert '"(1|1)"' in d1 and "digraph" in d1
    j = json_diagram(graph, 2)
    assert j["sources"] == graph.sources(2)
    assert len(j["undetermined"]) == 6
    j4 = json_diagram(graph, 4)
    assert "note" in j4


def test_dot_styles(graph):
    d = dot_diagram(graph, 2)
    assert "style=dashed" in d   # family limits
    assert "style=dotted" in d   # undetermined pairs
    assert "style=solid" in d


def test_component_node_counts(graph):
    assert len(json_diagram(graph, 3)["nodes"]) == 17
    assert len(json_diagram(graph, 1)["nodes"]) == 1
    assert len(json_diagram(graph, 2)["nodes"]) == 24
    assert len(json_diagram(graph, 4)["nodes"]) == 19


def test_one_closed_set_table_per_entry(monkeypatch):
    # the obstruction certificates and the auto-resolved pairs of one graph
    # read each entry's table, built at most once
    real, calls = catalog_module.closed_set_member, Counter()
    monkeypatch.setattr(catalog_module, "closed_set_member",
                        lambda sc, split=None: calls.update([id(sc)]) or real(sc, split))
    fresh = load_catalog()
    graph = load_default_graph(fresh)
    assert calls and set(calls) <= {id(e.sc) for e in fresh.entries.values()}
    assert max(calls.values()) == 1
    assert graph.nodes is fresh.entries
