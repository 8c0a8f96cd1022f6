import itertools

import numpy as np
import pytest

from ggff import (Edge, ElectricalNetwork, GaugeField, VertexSigns, apply_gauge_transform,
                  are_gauge_equivalent, is_trivial)

from conftest import path_holonomy, random_network

# the triangle, both orientations, rooted anywhere; enough for PT's cycle space
PT_CYCLES = [("x", "y", "z", "x"), ("x", "z", "y", "x"), ("y", "z", "x", "y")]


def test_holonomy_trivial_gauge_all_loops_plus(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    for lp in PT_CYCLES:
        assert path_holonomy(gauge, *lp) == 1


def test_holonomy_pt_examples(pt):
    net, gauge = pt
    assert path_holonomy(gauge, "x", "y", "z", "x") == -1
    assert path_holonomy(gauge, "y", "z", "y") == 1
    assert path_holonomy(gauge, "x") == 1


def test_holonomy_multiplicative_and_reversal_invariant():
    """GaugeField.sign reads an edge's sign in either orientation, so a
    walk's holonomy is the product of its two halves' and its reversal's."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        net, gauge = random_network(rng, max_interior=6)
        # random walk of random length, then split at a random point
        verts = [str(rng.choice(net.vertices))]
        for _ in range(int(rng.integers(1, 12))):
            nbrs = [w for w, _ in net.adjacency[verts[-1]]]
            verts.append(str(nbrs[int(rng.integers(0, len(nbrs)))]))
        cut = int(rng.integers(1, len(verts)))
        h = path_holonomy(gauge, *verts)
        assert h == path_holonomy(gauge, *verts[:cut + 1]) * path_holonomy(gauge, *verts[cut:])
        assert path_holonomy(gauge, *reversed(verts)) == h


def test_apply_gauge_transform_identity(pt):
    net, gauge = pt
    vs = VertexSigns.all_plus(net)
    assert apply_gauge_transform(vs, gauge).signs == gauge.signs


def test_apply_gauge_transform_example_preserves_cycle_holonomies(pt_net):
    # gauge with -1 only on xy; flipping y moves the -1 onto yz
    net = pt_net
    sigma = GaugeField.with_minus_edges(net, [("x", "y")])
    vs = VertexSigns.with_minus_vertices(net, ["y"])
    out = apply_gauge_transform(vs, sigma)
    assert [k for k in net.sorted_edge_keys if out.signs[k] == -1] == [("y", "z")]
    for lp in PT_CYCLES:  # loop holonomies are transform invariants
        assert path_holonomy(sigma, *lp) == path_holonomy(out, *lp)


def test_apply_gauge_transform_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net, gauge = random_network(rng, max_interior=6)
        vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1)
                               for v in net.vertices})
        assert apply_gauge_transform(vs, apply_gauge_transform(vs, gauge)).signs \
            == gauge.signs


def exhaustive_equivalence(sigma: GaugeField, sigma_prime: GaugeField):
    """Oracle: search all 2^|V| vertex-sign maps for a certificate."""
    net = sigma.network
    vs_list = []
    for bits in itertools.product((1, -1), repeat=len(net.vertices)):
        vs = dict(zip(net.vertices, bits))
        if all(sigma_prime.signs[k] == vs[k[0]] * s * vs[k[1]]
               for k, s in sigma.signs.items()):
            vs_list.append(vs)
    return vs_list


def test_gauge_equivalent_self_gives_all_plus_certificate(pt):
    net, gauge = pt
    cert = are_gauge_equivalent(gauge, gauge)
    assert cert is not None and all(s == 1 for s in cert.signs.values())


def test_gauge_equivalence_example_with_exhaustive_oracle(pt_net):
    net = pt_net
    s1 = GaugeField.with_minus_edges(net, [("x", "y")])
    s2 = GaugeField.with_minus_edges(net, [("y", "z")])
    cert = are_gauge_equivalent(s1, s2)
    assert cert is not None
    assert {v for v, s in cert.signs.items() if s == -1} == {"y"}
    oracle = exhaustive_equivalence(s1, s2)
    assert len(oracle) == 2  # exactly two certificates on a connected network
    assert cert.signs in oracle


def test_nontrivial_not_equivalent_to_trivial(pt):
    net, gauge = pt
    assert are_gauge_equivalent(gauge, GaugeField.all_plus(net)) is None


def test_certificate_verifies_and_is_canonical():
    rng = np.random.default_rng(23)
    for _ in range(60):
        net, sigma = random_network(rng, max_interior=7)
        vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1)
                               for v in net.vertices})
        sigma_prime = apply_gauge_transform(vs, sigma)
        cert = are_gauge_equivalent(sigma, sigma_prime)
        assert cert is not None
        assert apply_gauge_transform(cert, sigma).signs == sigma_prime.signs
        assert cert.signs[min(net.vertex_set)] == 1


def test_equivalence_rejects_mismatched_networks():
    rng = np.random.default_rng(3)
    n1, g1 = random_network(rng, max_interior=4)
    n2, g2 = random_network(rng, max_interior=4)
    if n1 != n2:
        with pytest.raises(ValueError):
            are_gauge_equivalent(g1, g2)


def test_is_trivial_examples(pt):
    net, gauge = pt
    ok, cert = is_trivial(GaugeField.all_plus(net))
    assert ok and cert is not None
    ok, cert = is_trivial(gauge)
    assert not ok and cert is None


def test_any_gauge_on_tree_is_trivial():
    net = ElectricalNetwork(("b", "u", "v", "w"), frozenset({"b"}),
                            (Edge("e0", "b", "u", 1.0), Edge("e1", "u", "v", 1.0),
                             Edge("e2", "u", "w", 2.0)))
    rng = np.random.default_rng(9)
    for _ in range(8):
        gauge = GaugeField(net, {e.key: (-1 if rng.random() < 0.5 else 1)
                                 for e in net.edges})
        ok, cert = is_trivial(gauge)
        assert ok
        assert apply_gauge_transform(cert, gauge).signs \
            == GaugeField.all_plus(net).signs


def test_equivalent_fields_share_all_loop_holonomies():
    rng = np.random.default_rng(31)
    for _ in range(30):
        net, sigma = random_network(rng, max_interior=6)
        vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1)
                               for v in net.vertices})
        sigma_prime = apply_gauge_transform(vs, sigma)
        # random loops via closing a random walk along a shortest return path
        start = str(rng.choice(net.vertices))
        verts = [start]
        for _ in range(int(rng.integers(2, 10))):
            nbrs = [w for w, _ in net.adjacency[verts[-1]]]
            verts.append(str(nbrs[int(rng.integers(0, len(nbrs)))]))
        # walk back along the reversed walk: guaranteed loop
        loop = verts + verts[-2::-1]
        assert loop[0] == loop[-1]
        assert path_holonomy(sigma, *loop) == path_holonomy(sigma_prime, *loop)
