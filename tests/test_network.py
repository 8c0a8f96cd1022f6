import gc
import json
import weakref

import numpy as np
import pytest

import ggff
from ggff import (Edge, ElectricalNetwork, GaugeField, InvalidNetworkError,
                  NetworkFormatError, VertexSigns, build_double_cover, cli, edge_key,
                  load_network, save_network, spectral, subdivide, validate)
from ggff.gff import estimate_event_probability, two_point_connectivity
from ggff.loopsoup import LoopSoupSampler

from conftest import duplicate_edge_id_pt, pendant_triangle, random_network, with_conductances


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


def test_duplicate_edge_id_is_refused_by_name():
    """Subdivision would otherwise make two vertices e1#1."""
    with pytest.raises(InvalidNetworkError, match="^duplicate edge id 'e1'$"):
        load_network(json.dumps(duplicate_edge_id_pt()))


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


@pytest.mark.parametrize("sign", [True, np.int64(-1), 1.0], ids=["True", "int64", "float"])
def test_signs_must_be_python_ints(sign):
    """save_network would write True as true, which load_network refuses,
    and stop halfway through the file at an np.int64."""
    net, gauge = pendant_triangle()
    with pytest.raises(ValueError, match="must be the int -1 or \\+1"):
        GaugeField(net, {**gauge.signs, edge_key("x", "y"): sign})
    with pytest.raises(ValueError, match="must be the int -1 or \\+1"):
        VertexSigns(net, {**VertexSigns.all_plus(net).signs, "y": sign})


def test_random_gauges_round_trip_through_json(tmp_path):
    rng = np.random.default_rng(17)
    for k in range(10):
        net, gauge = random_network(rng)
        save_network(net, tmp_path / f"{k}.json", gauge)
        loaded, loaded_gauge = load_network(tmp_path / f"{k}.json")
        assert loaded == net and loaded_gauge.signs == gauge.signs


@pytest.mark.parametrize("field, value", [
    ("vertices", 5), ("vertices", "bxyz"), ("vertices", {"b": 1}),
    ("boundary", "b"), ("boundary", None), ("edges", 4), ("edges", {"id": "bx"})])
def test_load_requires_json_arrays(field, value):
    """A string would otherwise be read character by character, and a number
    would raise TypeError."""
    data = json.loads(json.dumps(PT_JSON))
    data[field] = value
    with pytest.raises(NetworkFormatError, match=f"field '{field}' must be a JSON array"):
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
    # each edge's one sub-edge, id "<edge id>#1", joins the edge's own ends
    assert {e.key: e.id for e in sub.network.edges} == {e.key: f"{e.id}#1" for e in net.edges}
    assert g1.signs == {e.key: gauge.signs[e.key] for e in net.edges}


def test_subdivide_single_minus_edge_n3():
    net = ElectricalNetwork(("a", "x"), frozenset({"a"}),
                            (Edge("e1", "a", "x", 1.0),))
    gauge = GaugeField.with_minus_edges(net, [("a", "x")])
    sub, g3 = subdivide(net, gauge, 3)
    # path a - e1#1 - e1#2 - x, conductances 3, middle edge sign -1
    assert set(sub.network.vertices) == {"a", "x", "e1#1", "e1#2"}
    path_keys = tuple({e.id: e.key for e in sub.network.edges}[f"e1#{k}"] for k in (1, 2, 3))
    assert path_keys == (edge_key("a", "e1#1"), edge_key("e1#1", "e1#2"),
                         edge_key("e1#2", "x"))
    assert [sub.network.edge_map[k].conductance for k in path_keys] == [3.0, 3.0, 3.0]
    assert [g3.signs[k] for k in path_keys] == [1, -1, 1]


def test_subdivide_even_or_nonpositive_rejected():
    net, gauge = pendant_triangle()
    for n in (0, 2, 4, -3):
        with pytest.raises(ValueError):
            subdivide(net, gauge, n)


@pytest.mark.parametrize("case", ["self-loop", "duplicate edge", "disconnected", "overflow"])
def test_subdivide_rejects_invalid_networks(case):
    net, _ = pendant_triangle()
    extra = {"self-loop": ((), (Edge("xx", "x", "x", 1.0),)),
             "duplicate edge": ((), (Edge("yx", "y", "x", 2.0),)),
             "disconnected": (("c", "w"), (Edge("cw", "c", "w", 1.0),)),
             "overflow": ((), ())}[case]
    bad = ElectricalNetwork(net.vertices + extra[0], net.boundary | set(extra[0][:1]),
                            net.edges + extra[1])
    if case == "overflow":
        bad = with_conductances(bad, [1e308] * len(bad.edges))
    with pytest.raises(InvalidNetworkError):
        subdivide(bad, GaugeField.all_plus(bad), 3)


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
        sub, gn = first = subdivide(net, gauge, n)
        assert validate(sub.network).ok
        assert len(sub.network.vertices) == len(net.vertices) + (n - 1) * len(net.edges)
        assert len(sub.network.edges) == n * len(net.edges)
        # each original edge owns exactly n new ones, "<edge id>#1".."<edge id>#n",
        # at n times its conductance; the union is everything
        ids = {e.id: e for e in sub.network.edges}
        assert sorted(ids) == sorted(f"{e.id}#{k}" for e in net.edges for k in range(1, n + 1))
        assert all(ids[f"{e.id}#{k}"].conductance == n * e.conductance
                   for e in net.edges for k in range(1, n + 1))
        # the original vertices come first, as they were
        assert sub.network.vertices[:len(net.vertices)] == net.vertices
        # minus signs only at middles of -1 parents
        minus = [k for k, s in gn.signs.items() if s == -1]
        assert minus == [ids[f"yz#{(n + 1) // 2}"].key]
        # determinism: a copy of the gauge subdivides to the same network and
        # signs; the gauge itself returns its cached subdivision
        sub2, gn2 = subdivide(net, GaugeField(net, dict(gauge.signs)), n)
        assert sub2 is not sub and sub2.network == sub.network and gn2.signs == gn.signs
        assert subdivide(net, gauge, n) is first


def test_cached_builders_still_refuse_a_gauge_of_another_network():
    """The different-network check runs before the gauge's cache is read."""
    net, gauge = pendant_triangle()
    cli.identity_checks(net, gauge)  # caches the cover, both subdivisions and vs.sigma
    other = with_conductances(net, [2.0] * len(net.edges))
    for build in (lambda: build_double_cover(other, gauge), lambda: subdivide(other, gauge, 3),
                  lambda: cli.identity_checks(other, gauge)):
        with pytest.raises(ValueError, match="different network"):
            build()


def test_the_cached_cover_and_subdivisions_die_with_the_gauge():
    net, gauge = pendant_triangle()
    cli.identity_checks(net, gauge)
    refs = [weakref.ref(build_double_cover(net, gauge)),
            *(weakref.ref(subdivide(net, gauge, n)[0].network) for n in (3, 5))]
    assert all(r() is not None for r in refs)
    del gauge
    gc.collect()
    assert [r() for r in refs] == [None] * 3


def test_vertex_ids_normalized_to_strings():
    data = {"vertices": [0, 1, 2], "boundary": [0],
            "edges": [{"u": 0, "v": 1, "conductance": 1.0},
                      {"u": 1, "v": 2, "conductance": 2.0}]}
    net, _ = load_network(json.dumps(data))
    assert net.vertices == ("0", "1", "2")
    assert net.interior == ("1", "2")


def star_network() -> ElectricalNetwork:
    """Three interior vertices joined only to the boundary vertex b."""
    return ElectricalNetwork(("b", "x", "y", "z"), frozenset({"b"}),
                             tuple(Edge(f"e{v}", "b", v, 1.0) for v in "xyz"))


def test_integer_view_is_built_once_per_network(monkeypatch):
    """Every numeric layer reads one cached interior index, interior edge
    list, degree array and sign array per network and gauge field."""
    builds = []
    for owner, name in ((ElectricalNetwork, "interior_index"),
                        (ElectricalNetwork, "interior_edges"),
                        (ElectricalNetwork, "interior_degrees"), (GaugeField, "interior_signs")):
        prop = owner.__dict__[name]

        def counting(self, real=prop.func, name=name):
            builds.append(name)
            return real(self)

        monkeypatch.setattr(prop, "func", counting)
    net, gauge = pendant_triangle()
    spectral.laplacian(net)
    spectral.twisted_laplacian(net, gauge)
    spectral.restricted_green(net, ("x", "z"), gauge)
    spectral.loop_mass(net)
    LoopSoupSampler(net, 0.5)
    estimate_event_probability(net, gauge, 8, 1)
    assert sorted(builds) == ["interior_degrees", "interior_edges", "interior_index",
                              "interior_signs"]


def test_integer_view_is_read_only():
    net, gauge = pendant_triangle()
    for a in (*net.interior_edges[1:], net.interior_degrees, gauge.interior_signs):
        with pytest.raises(ValueError):
            a[0] = 0


def test_integer_view_matches_a_derivation_from_the_edges():
    """On a star with no edge between interior vertices and on 33 random
    networks: interior positions in sorted order, the interior edges in sorted
    key order with their ends' positions, conductances and gauge signs, and
    each interior vertex's degree W(x), its conductances summed one by one in
    neighbour-id order, which the loop masses' log W terms read bit for bit."""
    rng = np.random.default_rng(23)
    cases = [(star_network(), GaugeField.all_plus(star_network()))]
    cases += [random_network(rng) for _ in range(30)]
    cases += [random_network(rng, max_interior=60) for _ in range(3)]
    for net, gauge in cases:
        interior = sorted(set(net.vertices) - net.boundary)
        keys = sorted(edge_key(e.u, e.v) for e in net.edges
                      if e.u not in net.boundary and e.v not in net.boundary)
        got_keys, u, v, c = net.interior_edges
        assert net.interior_index == {x: interior.index(x) for x in interior}
        assert got_keys == tuple(keys)
        assert u.dtype == v.dtype == gauge.interior_signs.dtype == np.intp
        assert u.tolist() == [interior.index(a) for a, _ in keys]
        assert v.tolist() == [interior.index(b) for _, b in keys]
        assert c.tolist() == [net.edge_map[k].conductance for k in keys]
        assert gauge.interior_signs.tolist() == [gauge.sign(*k) for k in keys]
        degrees = []
        for x in interior:
            w = 0.0
            for _, cond in sorted((e.v if e.u == x else e.u, e.conductance)
                                  for e in net.edges if x in (e.u, e.v)):
                w += cond
            degrees.append(w)
        assert net.interior_degrees.dtype == float
        assert net.interior_degrees.tolist() == degrees
        assert net.interior_degrees.tolist() == [net.weighted_degree(x) for x in interior]
        # reference loop masses: a per-vertex sum of log weighted_degree(x)
        lw = sum(np.log(net.weighted_degree(x)) for x in interior)
        lap, lap_s = spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)
        mass, mass_s = float(lw - lap.log_det()), float(lw - lap_s.log_det())
        assert spectral.loop_mass(net) == mass
        assert spectral.twisted_loop_mass(net, gauge) == mass_s
        assert spectral.negative_holonomy_mass(net, gauge) == 0.5 * (mass - mass_s)
    assert cases[0][0].interior_edges[0] == ()


def test_configuration_on_a_network_without_interior_edges():
    """On the star no edge can open: every sample is in the event, and no
    two interior vertices share a cluster."""
    star = star_network()
    gauge = GaugeField.all_plus(star)
    assert estimate_event_probability(star, gauge, 16, 1, batch_size=4).estimate == 1.0
    assert two_point_connectivity(star, ("x", "y"), 16, 2, batch_size=4).estimate == 0.0
