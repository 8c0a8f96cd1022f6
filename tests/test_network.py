import json

import numpy as np
import pytest

import ggff
from ggff import (Edge, ElectricalNetwork, GaugeField, InvalidNetworkError,
                  NetworkFormatError, edge_key, load_network, save_network,
                  subdivide, validate)

from conftest import pendant_triangle


def test_pt_is_valid():
    net, _ = pendant_triangle()
    rep = validate(net)
    assert rep.ok and rep.problems == []


def test_nonpositive_conductance_reported():
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}),
                            (Edge("e", "b", "x", 0.0),))
    rep = validate(net)
    assert not rep.ok
    assert any("non-positive conductance" in p for p in rep.problems)


def test_empty_boundary_reported():
    net = ElectricalNetwork(("x", "y"), frozenset(),
                            (Edge("e", "x", "y", 1.0),))
    rep = validate(net)
    assert not rep.ok
    assert any("empty boundary" in p for p in rep.problems)


def test_self_loop_duplicate_and_disconnection_reported():
    net = ElectricalNetwork(("b", "x", "y"), frozenset({"b"}),
                            (Edge("e0", "x", "x", 1.0),))
    probs = validate(net).problems
    assert any("self-loop" in p for p in probs)
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}),
                            (Edge("e0", "b", "x", 1.0), Edge("e1", "x", "b", 2.0)))
    assert any("duplicate edge" in p for p in validate(net).problems)
    net = ElectricalNetwork(("b", "x", "y"), frozenset({"b"}),
                            (Edge("e0", "b", "x", 1.0),))
    assert any("disconnected" in p for p in validate(net).problems)


def test_non_finite_conductance_rejected():
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}),
                            (Edge("e", "b", "x", float("nan")),))
    assert any("non-finite" in p for p in validate(net).problems)


PT_JSON = {
    "vertices": ["b", "x", "y", "z"],
    "boundary": ["b"],
    "edges": [
        {"id": "bx", "u": "b", "v": "x", "conductance": 1.0},
        {"id": "xy", "u": "x", "v": "y", "conductance": 1.0},
        {"id": "yz", "u": "y", "v": "z", "conductance": 1.0, "sigma": -1},
        {"id": "zx", "u": "z", "v": "x", "conductance": 1.0},
    ],
    "name": "PT",
}


def test_load_pt_roundtrip(tmp_path):
    path = tmp_path / "pt.json"
    path.write_text(json.dumps(PT_JSON))
    net, gauge = load_network(path)
    ref_net, ref_gauge = pendant_triangle()
    assert net == ref_net
    assert gauge.signs == ref_gauge.signs
    out = tmp_path / "out.json"
    save_network(net, out, gauge)
    net2, gauge2 = load_network(out)
    assert net2 == net and gauge2.signs == gauge.signs


def test_load_defaults_gauge_to_all_plus():
    data = {k: v for k, v in PT_JSON.items()}
    data["edges"] = [{k: v for k, v in e.items() if k != "sigma"} for e in PT_JSON["edges"]]
    net, gauge = load_network(json.dumps(data))
    assert all(s == 1 for s in gauge.signs.values())


def test_load_unknown_vertex_is_parse_error():
    data = json.loads(json.dumps(PT_JSON))
    data["edges"][0]["u"] = "ghost"
    with pytest.raises(NetworkFormatError, match="unknown vertex"):
        load_network(json.dumps(data))


@pytest.mark.parametrize("field, words", [
    ("conductance", "edge #1: conductance must be a number, got True"),
    ("sigma", "edge #1: sigma must be -1 or 1, got True")])
def test_load_rejects_booleans(field, words):
    """JSON true would otherwise pass as conductance 1.0 or as sigma +1."""
    data = json.loads(json.dumps(PT_JSON))
    data["edges"][1][field] = True
    with pytest.raises(NetworkFormatError, match=words):
        load_network(json.dumps(data))


def test_load_invalid_network_forwards_validation():
    data = json.loads(json.dumps(PT_JSON))
    data["boundary"] = []
    with pytest.raises(InvalidNetworkError, match="empty boundary"):
        load_network(json.dumps(data))


def test_load_malformed_json_has_line_context():
    with pytest.raises(NetworkFormatError, match="line"):
        load_network('{"vertices": [,]}')


def test_subdivide_identity_at_n1():
    net, gauge = pendant_triangle()
    sub, g1 = subdivide(net, gauge, 1)
    assert set(sub.network.vertices) == set(net.vertices)
    assert len(sub.network.edges) == len(net.edges)
    assert {sub.parent_edge[k]: k for k in sub.parent_edge} == \
        {k: k for k in (e.key for e in net.edges)}
    assert g1.signs == {e.key: gauge.signs[e.key] for e in net.edges}


def test_subdivide_single_minus_edge_n3():
    net = ElectricalNetwork(("a", "x"), frozenset({"a"}),
                            (Edge("e1", "a", "x", 1.0),))
    gauge = GaugeField.with_minus_edges(net, [("a", "x")])
    sub, g3 = subdivide(net, gauge, 3)
    # path a - e1#1 - e1#2 - x, conductances 3, middle edge sign -1
    assert set(sub.network.vertices) == {"a", "x", "e1#1", "e1#2"}
    path_keys = sub.edges_of[edge_key("a", "x")]
    assert path_keys == (edge_key("a", "e1#1"), edge_key("e1#1", "e1#2"),
                         edge_key("e1#2", "x"))
    assert [sub.network.edge_map[k].conductance for k in path_keys] == [3.0, 3.0, 3.0]
    assert [g3.signs[k] for k in path_keys] == [1, -1, 1]


def test_subdivide_even_or_nonpositive_rejected():
    net, gauge = pendant_triangle()
    for n in (0, 2, 4, -3):
        with pytest.raises(ValueError):
            subdivide(net, gauge, n)


def test_subdivision_green_matches_hand_value():
    # path a - x - c with unit conductances: G(x,x) = 1/W(x) = 1/2,
    # and the N=3 subdivision must reproduce it (dense solve on both networks)
    net = ElectricalNetwork(("a", "c", "x"), frozenset({"a", "c"}),
                            (Edge("ax", "a", "x", 1.0), Edge("xc", "x", "c", 1.0)))
    gauge = GaugeField.all_plus(net)
    g = ggff.green(net)
    assert g.value("x", "x") == pytest.approx(0.5, abs=1e-12)
    sub, _ = subdivide(net, gauge, 3)
    g3 = ggff.green(sub.network)
    assert g3.value("x", "x") == pytest.approx(0.5, abs=1e-8)


def test_subdivide_counts_and_parent_maps():
    net, gauge = pendant_triangle()
    for n in (3, 5):
        sub, gn = subdivide(net, gauge, n)
        assert len(sub.network.vertices) == len(net.vertices) + (n - 1) * len(net.edges)
        assert len(sub.network.edges) == n * len(net.edges)
        # each original edge owns exactly n new ones; the union is everything
        seen = [k for orig in sub.edges_of.values() for k in orig]
        assert len(seen) == len(set(seen)) == len(sub.network.edges)
        assert all(len(sub.edges_of[k]) == n for k in sub.edges_of)
        assert sub.parent_vertex == {v: v for v in net.vertices}
        # new conductances all n*C and minus signs only at middles of -1 parents
        minus = [k for k, s in gn.signs.items() if s == -1]
        assert len(minus) == 1 and sub.parent_edge[minus[0]] == edge_key("y", "z")
        # determinism
        sub2, gn2 = subdivide(net, gauge, n)
        assert sub2.network == sub.network and gn2.signs == gn.signs


def test_vertex_ids_normalized_to_strings():
    data = {"vertices": [0, 1, 2], "boundary": [0],
            "edges": [{"u": 0, "v": 1, "conductance": 1.0},
                      {"u": 1, "v": 2, "conductance": 2.0}]}
    net, _ = load_network(json.dumps(data))
    assert net.vertices == ("0", "1", "2")
    assert net.interior == ("1", "2")
