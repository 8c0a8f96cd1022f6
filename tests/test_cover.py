import itertools
from pathlib import Path

import numpy as np
import pytest

from ggff import (Edge, ElectricalNetwork, GaugeField, VertexSigns, apply_gauge_transform,
                  are_gauge_equivalent, build_double_cover, conditional_moment, cover,
                  edge_key, estimate_event_probability, gff, is_trivial, save_network,
                  load_network, two_point_connectivity)
from ggff import gauge as gauge_module

from conftest import (cover_labels, cover_maps, path_holonomy, pendant_triangle,
                      random_network, random_trivial_gauge)


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
    projection, deck, sheet = cover_maps(net)
    assert set(cn.vertices) == set(projection)
    assert len(cn.vertices) == 2 * len(net.vertices)
    assert len(cn.edges) == 2 * len(net.edges)
    # deck: fixed-point-free involution, automorphism, projection-compatible
    for v in cn.vertices:
        assert deck[v] != v and deck[deck[v]] == v
        assert projection[deck[v]] == projection[v]
    for k in cn.sorted_edge_keys:
        assert edge_key(deck[k[0]], deck[k[1]]) in cn.edge_map
        # conductances pulled back from the base
        base = net.edge_map[edge_key(projection[k[0]], projection[k[1]])]
        assert cn.edge_map[k].conductance == base.conductance
    assert cn.boundary == frozenset(cover.cover_vertex_id(v, s)
                                    for v in net.boundary for s in (1, 2))
    # edge rule: -1 edges cross sheets, +1 edges stay
    for k in cn.sorted_edge_keys:
        u, v = k
        base = edge_key(projection[u], projection[v])
        if gauge.signs[base] == 1:
            assert sheet[u] == sheet[v]
        else:
            assert sheet[u] != sheet[v]


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
        _, deck_ids, _ = cover_maps(net)
        one, two = cov.interior_lifts
        assert one.dtype == two.dtype == np.intp
        assert one.tolist() == [idx[cover.cover_vertex_id(x, 1)] for x in net.interior]
        assert two.tolist() == [idx[cover.cover_vertex_id(x, 2)] for x in net.interior]
        deck = np.empty(len(idx), dtype=np.intp)
        deck[one], deck[two] = two, one
        assert deck.tolist() == [idx[deck_ids[a]] for a in cov.cover_network.interior]
        for a in (one, two):
            with pytest.raises(ValueError):
                a[0] = 0
    assert cases[2][0].interior == ("a", "a!", "a1")
    one, two = build_double_cover(*cases[2]).interior_lifts
    assert (one.tolist(), two.tolist()) == ([2, 0, 4], [3, 1, 5])


def test_trivial_gauge_gives_two_disjoint_copies(pt_net):
    cov = build_double_cover(pt_net, GaugeField.all_plus(pt_net))
    assert not cov.cover_network.is_connected()
    assert bfs_component_count(cov.cover_network) == 2


def test_pt_twisted_cover_connected_8_vertices(pt):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    assert len(cov.cover_network.vertices) == 8
    assert len(cov.cover_network.edges) == 8
    assert bfs_component_count(cov.cover_network) == 1
    assert cov.cover_network.is_connected()


def test_single_minus_edge_cover_is_a_matching():
    net = ElectricalNetwork(("a", "x"), frozenset({"a"}),
                            (Edge("e", "a", "x", 1.0),))
    gauge = GaugeField.with_minus_edges(net, [("a", "x")])
    cov = build_double_cover(net, gauge)
    keys = set(cov.cover_network.sorted_edge_keys)
    assert keys == {edge_key("(a,1)", "(x,2)"), edge_key("(a,2)", "(x,1)")}
    assert bfs_component_count(cov.cover_network) == 2


def test_lift_path_examples(pt):
    """A lift changes sheet across each -1 edge: with PT's triangle open, its
    holonomy -1 joins x's two lifts, which all signs +1 keep apart, and with
    only the -1 edge yz open, (y,1) joins (z,2) and not (z,1)."""
    net, gauge = pt
    keys, u, v, _ = net.interior_edges
    x, y, z = (net.interior_index[a] for a in "xyz")
    triangle = np.ones((len(keys), 1), dtype=bool)
    lab = cover_labels(3, u, v, gauge.interior_signs, triangle)[0]
    assert lab[x, 0] == lab[x, 1]
    plain = cover_labels(3, u, v, np.ones_like(gauge.interior_signs), triangle)[0]
    assert plain[x, 0] != plain[x, 1]
    lab = cover_labels(3, u, v, gauge.interior_signs,
                       np.array([[k == ("y", "z")] for k in keys]))[0]
    assert lab[y, 0] == lab[z, 1] != lab[z, 0]


def fundamental_cycles(net):
    """The fundamental cycles of a breadth-first spanning forest of net's
    interior edges, each a closed vertex sequence: a non-forest edge's ends
    joined through the forest."""
    keys = net.interior_edges[0]
    adj = {x: [] for x in net.interior}
    for a, b in keys:
        adj[a].append(b)
        adj[b].append(a)
    parent, depth = {}, {}
    for root in net.interior:
        if root in parent:
            continue
        parent[root], depth[root], queue = None, 0, [root]
        for w in queue:
            for x in adj[w]:
                if x not in parent:
                    parent[x], depth[x] = w, depth[w] + 1
                    queue.append(x)
    cycles = []
    for a, b in keys:
        if parent[a] == b or parent[b] == a:
            continue
        up, down = [a], [b]
        while up[-1] != down[-1]:
            deeper = up if depth[up[-1]] >= depth[down[-1]] else down
            deeper.append(parent[deeper[-1]])
        cycles.append(tuple(up + down[-2::-1] + [a]))
    return cycles


def test_lift_consistent_with_holonomy():
    """With exactly one simple cycle open, a vertex of the cycle has both
    lifts in one cover component iff the cycle's holonomy is -1, and every
    other vertex has them apart: the fundamental cycles of 40 random
    networks, labelled in one call per network, both holonomies drawn."""
    rng = np.random.default_rng(29)
    seen = set()
    for _ in range(40):
        net, gauge = random_network(rng, max_interior=7)
        keys, u, v, _ = net.interior_edges
        cycles = fundamental_cycles(net)
        opened = np.array([[edge_key(a, b) in set(map(edge_key, c, c[1:])) for c in cycles]
                           for a, b in keys], dtype=bool).reshape(len(keys), len(cycles))
        lab = cover_labels(len(net.interior), u, v, gauge.interior_signs, opened)
        for c, col in zip(cycles, lab):
            h = path_holonomy(gauge, *c)
            seen.add(h)
            joined = col[:, 0] == col[:, 1]
            on_cycle = np.isin(np.array(net.interior), c)
            assert np.all(joined == (on_cycle & (h == -1)))
    assert seen == {1, -1}


def test_cover_connectivity_iff_nontrivial_on_random_inputs():
    rng = np.random.default_rng(41)
    for i in range(60):
        net, gauge = random_network(rng, max_interior=8)
        if i % 3 == 0:
            gauge = random_trivial_gauge(rng, net)
        cov = build_double_cover(net, gauge)
        trivial, _ = is_trivial(gauge)
        assert cov.cover_network.is_connected() == (not trivial)


def test_fundamental_domain(pt):
    """The sheet-1 lifts are a fundamental domain: the projection maps them
    one to one onto the base vertices, and the deck onto the other lifts."""
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    projection, deck, sheet = cover_maps(net)
    dom = [w for w in cov.cover_network.vertices if sheet[w] == 1]
    assert set(dom) == {"(b,1)", "(x,1)", "(y,1)", "(z,1)"}
    assert sorted(projection[w] for w in dom) == sorted(net.vertices)
    assert {deck[w] for w in dom} == set(cov.cover_network.vertices) - set(dom)


def test_covering_isomorphism_examples(pt_net):
    """Swapping the sheets over the vertices where vs is -1 maps the double
    cover of sigma onto that of vs . sigma: on each of the 8 open subsets of
    PT's triangle, the kernel's cover components for vs . sigma are those
    for sigma with the lifts swapped there, for vs the identity, -1 at y
    (which moves the -1 edge from xy to yz) and -1 everywhere (the deck)."""
    net = pt_net
    keys, u, v, _ = net.interior_edges
    s1 = GaugeField.with_minus_edges(net, [("x", "y")])
    opened = np.array(list(itertools.product((False, True), repeat=len(keys)))).T
    lab = cover_labels(3, u, v, s1.interior_signs, opened)
    vs_y = VertexSigns.with_minus_vertices(net, ["y"])
    assert apply_gauge_transform(vs_y, s1) == GaugeField.with_minus_edges(net, [("y", "z")])
    for vs in (VertexSigns.all_plus(net), vs_y,
               VertexSigns(net, {w: -1 for w in net.vertices})):
        swap = np.array([vs.signs[x] == -1 for x in net.interior])
        moved = np.where(swap[:, None], lab[:, :, ::-1], lab)
        got = cover_labels(3, u, v, apply_gauge_transform(vs, s1).interior_signs, opened)
        for a, b in zip(moved.reshape(len(lab), -1), got.reshape(len(lab), -1)):
            pairs = set(zip(a.tolist(), b.tolist()))  # one to one: the same partition
            assert len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def test_cover_export_roundtrips(pt, tmp_path):
    net, gauge = pt
    cov = build_double_cover(net, gauge)
    path = tmp_path / "cover.json"
    save_network(cov.cover_network, path)
    loaded, _ = load_network(path)
    assert loaded == cov.cover_network


def test_every_balance_query_reaches_the_one_kernel(monkeypatch):
    """Each public balance question is decided by the double-cover labelling
    kernel: one labelling per pair of gauge fields, and one per batch, of the
    batch's width, in an estimator, whose batches share one pattern built for
    the largest."""
    widths, patterns = [], []
    real, real_pattern = cover._cover_labels, cover._cover_pattern

    def counting(pattern, opened):
        widths.append(opened.shape[1])
        assert pattern is patterns[-1]
        return real(pattern, opened)

    def building(m, edge_u, edge_v, rel, n):
        patterns.append(real_pattern(m, edge_u, edge_v, rel, n))
        widths.append(("pattern", n))
        return patterns[-1]

    for owner in (cover, gauge_module, gff):  # gauge and gff hold the names they imported
        monkeypatch.setattr(owner, "_cover_labels", counting)
        monkeypatch.setattr(owner, "_cover_pattern", building)
    net, gauge = pendant_triangle()
    queries = {
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
        assert widths == ([("pattern", 4), 4, 4, 2] if name in estimators
                          else [("pattern", 1), 1]), name
