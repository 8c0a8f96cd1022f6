from pathlib import Path

import numpy as np
import pytest

from ggff import (DiscretePath, Edge, ElectricalNetwork, GaugeField,
                  VertexSigns, are_gauge_equivalent, build_double_cover,
                  conditional_moment, covering_isomorphism, cover, detect_event,
                  edge_key, estimate_event_probability, fundamental_domain, gff,
                  holonomy, is_cover_connected, is_trivial, lift_path,
                  make_cluster_configuration, sample_cluster_configuration,
                  sample_gff, save_network, load_network, sign_flip_transform,
                  two_point_connectivity)

from conftest import pendant_triangle, random_network, random_trivial_gauge


def bfs_component_count(net: ElectricalNetwork) -> int:
    seen = set()
    count = 0
    for v in net.vertices:
        if v in seen:
            continue
        count += 1
        stack = [v]
        seen.add(v)
        while stack:
            w = stack.pop()
            for x, _ in net.adjacency[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
    return count


def test_cover_structure_invariants(pt):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    cn = cov.cover_network
    assert len(cn.vertices) == 2 * len(net.vertices)
    assert len(cn.edges) == 2 * len(net.edges)
    # deck: fixed-point-free involution, automorphism, projection-compatible
    for v in cn.vertices:
        assert cov.deck[v] != v and cov.deck[cov.deck[v]] == v
        assert cov.projection[cov.deck[v]] == cov.projection[v]
    for k in cn.sorted_edge_keys:
        assert edge_key(cov.deck[k[0]], cov.deck[k[1]]) in cn.edge_map
        # conductances pulled back from the base
        assert cn.edge_map[k].conductance == net.conductance(
            cov.projection[k[0]], cov.projection[k[1]])
    assert cn.boundary == frozenset(cov.lift(v, s) for v in net.boundary for s in (1, 2))
    # edge rule: -1 edges cross sheets, +1 edges stay
    for k in cn.sorted_edge_keys:
        u, v = k
        base = edge_key(cov.projection[u], cov.projection[v])
        if gauge.signs[base] == 1:
            assert cov.sheet[u] == cov.sheet[v]
        else:
            assert cov.sheet[u] != cov.sheet[v]


def test_interior_lifts_read_the_cover_ids(pt):
    """interior_lifts holds the cover positions of each interior vertex's two
    lifts, and the deck swaps them: on PT, the 6 x 8 annulus, seeded random
    networks with random gauges, and ids whose lifts sort in another order
    ("(a!,1)" < "(a,1)" although "a" < "a!")."""
    rng = np.random.default_rng(41)
    odd = ElectricalNetwork(("a", "a!", "a1", "b"), frozenset({"b"}),
                            (Edge("e0", "a", "a!", 1.5), Edge("e1", "a!", "a1", 0.5),
                             Edge("e2", "a1", "b", 1.0), Edge("e3", "a", "b", 2.0)))
    cases = [pt, load_network(Path(__file__).resolve().parent.parent / "networks"
                              / "annulus-6x8.json"),
             (odd, GaugeField.with_minus_edges(odd, [("a", "a!")]))]
    cases += [random_network(rng) for _ in range(12)]
    for net, gauge in cases:
        cov = build_double_cover(net, gauge)
        idx = cov.cover_network.interior_index
        one, two = cov.interior_lifts
        assert one.dtype == two.dtype == np.intp
        assert one.tolist() == [idx[cov.lift(x, 1)] for x in net.interior]
        assert two.tolist() == [idx[cov.lift(x, 2)] for x in net.interior]
        deck = np.empty(len(idx), dtype=np.intp)
        deck[one], deck[two] = two, one
        assert deck.tolist() == [idx[cov.deck[a]] for a in cov.cover_network.interior]
        for a in (one, two):
            with pytest.raises(ValueError):
                a[0] = 0
    assert cases[2][0].interior == ("a", "a!", "a1")
    one, two = build_double_cover(*cases[2]).interior_lifts
    assert (one.tolist(), two.tolist()) == ([2, 0, 4], [3, 1, 5])


def test_trivial_gauge_gives_two_disjoint_copies(pt_net):
    cov = build_double_cover(pt_net, GaugeField.all_plus(pt_net))
    assert not is_cover_connected(cov)
    assert bfs_component_count(cov.cover_network) == 2


def test_pt_twisted_cover_connected_8_vertices(pt):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    assert len(cov.cover_network.vertices) == 8
    assert len(cov.cover_network.edges) == 8
    assert bfs_component_count(cov.cover_network) == 1
    assert is_cover_connected(cov)


def test_single_minus_edge_cover_is_a_matching():
    net = ElectricalNetwork(("a", "x"), frozenset({"a"}),
                            (Edge("e", "a", "x", 1.0),))
    gauge = GaugeField.with_minus_edges(net, [("a", "x")])
    cov = build_double_cover(net, gauge)
    keys = set(cov.cover_network.sorted_edge_keys)
    assert keys == {edge_key("(a,1)", "(x,2)"), edge_key("(a,2)", "(x,1)")}
    assert bfs_component_count(cov.cover_network) == 2


def test_lift_path_examples(pt):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    lifted = lift_path(cov, DiscretePath(net, ("x", "y", "z", "x")), start_sheet=1)
    assert lifted.vertices[0] == "(x,1)" and lifted.vertices[-1] == "(x,2)"
    trivial_cov = build_double_cover(net, GaugeField.all_plus(net))
    lifted2 = lift_path(trivial_cov, DiscretePath(net, ("x", "y", "z", "x")), 1)
    assert lifted2.vertices[-1] == lifted2.vertices[0]
    lifted3 = lift_path(cov, DiscretePath(net, ("y", "z")), 1)
    assert lifted3.vertices == ("(y,1)", "(z,2)")


def test_loop_traversed_twice_returns_to_start():
    rng = np.random.default_rng(17)
    for _ in range(25):
        net, gauge = random_network(rng, max_interior=6)
        cov = build_double_cover(net, gauge)
        start = str(rng.choice(net.vertices))
        verts = [start]
        for _ in range(int(rng.integers(2, 8))):
            nbrs = [w for w, _ in net.adjacency[verts[-1]]]
            verts.append(str(nbrs[int(rng.integers(0, len(nbrs)))]))
        loop_vs = tuple(verts + verts[-2::-1])  # out-and-back loop
        doubled = DiscretePath(net, loop_vs + loop_vs[1:])
        lifted = lift_path(cov, doubled, 1)
        assert lifted.vertices[-1] == lifted.vertices[0]


def test_lift_consistent_with_holonomy():
    rng = np.random.default_rng(29)
    for _ in range(40):
        net, gauge = random_network(rng, max_interior=7)
        cov = build_double_cover(net, gauge)
        start = str(rng.choice(net.vertices))
        verts = [start]
        for _ in range(int(rng.integers(1, 9))):
            nbrs = [w for w, _ in net.adjacency[verts[-1]]]
            verts.append(str(nbrs[int(rng.integers(0, len(nbrs)))]))
        loop = DiscretePath(net, tuple(verts + verts[-2::-1]))
        lifted = lift_path(cov, loop, 2)
        h = holonomy(gauge, loop)
        if h == 1:
            assert lifted.vertices[-1] == lifted.vertices[0]
        else:
            assert lifted.vertices[-1] == cov.deck[lifted.vertices[0]]


def test_cover_connectivity_iff_nontrivial_on_random_inputs():
    rng = np.random.default_rng(41)
    for i in range(60):
        net, gauge = random_network(rng, max_interior=8)
        if i % 3 == 0:
            gauge = random_trivial_gauge(rng, net)
        cov = build_double_cover(net, gauge)
        trivial, _ = is_trivial(gauge)
        assert is_cover_connected(cov) == (not trivial)


def test_fundamental_domain(pt):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    dom = fundamental_domain(cov)
    assert set(dom) == {"(b,1)", "(x,1)", "(y,1)", "(z,1)"}
    assert sorted(cov.projection[v] for v in dom) == sorted(net.vertices)
    assert {cov.deck[v] for v in dom} == set(cov.cover_network.vertices) - set(dom)


def test_covering_isomorphism_examples(pt_net):
    net = pt_net
    s1 = GaugeField.with_minus_edges(net, [("x", "y")])
    vs_id = VertexSigns.all_plus(net)
    iso = covering_isomorphism(s1, s1, vs_id)
    assert all(iso[v] == v for v in iso)
    # flipping y swaps the sheet exactly over y
    vs_y = VertexSigns.with_minus_vertices(net, ["y"])
    s2 = GaugeField.with_minus_edges(net, [("y", "z")])
    iso2 = covering_isomorphism(s1, s2, vs_y)
    cov = build_double_cover(net, s1)
    for v in iso2:
        if cov.projection[v] == "y":
            assert iso2[v] == cov.deck[v]  # sheet swapped (shared id space)
        else:
            assert iso2[v] == v
    # global -1 is the deck involution
    vs_all = VertexSigns(net, {v: -1 for v in net.vertices})
    iso3 = covering_isomorphism(s1, s1, vs_all)
    assert all(iso3[v] == cov.deck[v] for v in iso3)


def test_covering_isomorphism_rejects_wrong_certificate(pt):
    net, gauge = pt
    vs = VertexSigns.with_minus_vertices(net, ["y"])
    with pytest.raises(ValueError, match="does not transform"):
        covering_isomorphism(gauge, gauge, vs)


def test_cover_export_roundtrips(pt, tmp_path):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    path = tmp_path / "cover.json"
    save_network(cov.cover_network, path)
    loaded, _ = load_network(path)
    assert loaded == cov.cover_network


def test_every_balance_query_reaches_the_one_kernel(monkeypatch):
    """Each public balance question is decided by the double-cover labelling
    kernel: one labelling per configuration or pair of gauge fields, and one
    per batch, of the batch's width, in an estimator."""
    widths = []
    real = cover._cover_labels

    def counting(m, edge_u, edge_v, rel, opened):
        widths.append(opened.shape[1])
        return real(m, edge_u, edge_v, rel, opened)

    for owner in (cover, gff):  # gff holds the name it imported
        monkeypatch.setattr(owner, "_cover_labels", counting)
    net, gauge = pendant_triangle()
    signs = {v: 1 for v in net.interior}
    config = make_cluster_configuration(net, signs, {edge_key("y", "z"): True})
    queries = {
        "make_cluster_configuration":
            lambda: make_cluster_configuration(net, signs, {edge_key("x", "y"): True}),
        "sample_cluster_configuration":
            lambda: sample_cluster_configuration(sample_gff(net, 1), net, 2),
        "detect_event": lambda: detect_event(config, gauge),
        "sign_flip_transform": lambda: sign_flip_transform(config, gauge),
        "are_gauge_equivalent": lambda: are_gauge_equivalent(gauge, gauge),
        "is_trivial": lambda: is_trivial(gauge),
    }
    estimators = {
        "estimate_event_probability":
            lambda: estimate_event_probability(net, gauge, 10, seed=1, batch_size=4),
        "conditional_moment":
            lambda: conditional_moment(net, gauge, ("x", "y"), 10, seed=1, batch_size=4),
        "two_point_connectivity":
            lambda: two_point_connectivity(net, ("x", "y"), 10, seed=1, batch_size=4),
    }
    for name, query in {**queries, **estimators}.items():
        widths.clear()
        query()
        assert widths == ([4, 4, 2] if name in estimators else [1]), name
