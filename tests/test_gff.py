import itertools
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ggff
from ggff import (Edge, ElectricalNetwork, GaugeField, VertexSigns,
                  apply_gauge_transform, estimate_event_probability,
                  conditional_moment, green, open_probability,
                  sample_cover_gff_batch, sample_metric_field, twisted_green,
                  two_point_connectivity, edge_key, load_network, spectral, subdivide)
from ggff.cover import (_balanced, _cover_labels, _cover_pattern, _cover_table, _label_sign,
                        _table_labels)
from ggff.gff import _OPEN_BLOCK, _fields, _open_marks
from ggff.seeds import substream

from conftest import (ParityUnionFind, cover_labels, cycles_balanced, holed_grid,
                      pendant_triangle, polar_annulus, random_network, reference_fields,
                      union_find_balanced, with_conductances)

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def cov_tolerance(gdiag, n, k=4.0):
    return k * np.sqrt((np.outer(gdiag, gdiag) + np.outer(gdiag, gdiag)) / n)


def empirical_cov(block):
    return block @ block.T / block.shape[1]


def test_sampler_determinism(pt):
    net, gauge = pt
    for lap in (spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)):
        assert np.array_equal(_fields(lap, substream(42), 1), _fields(lap, substream(42), 1))
    lap = spectral.laplacian(net)
    assert not np.array_equal(_fields(lap, substream(42), 1), _fields(lap, substream(43), 1))


def test_gff_empirical_covariance(pt_net):
    n = 100_000
    block = _fields(spectral.laplacian(pt_net), substream(1), n)
    g = green(pt_net).entries
    assert np.all(np.abs(empirical_cov(block) - g) <= cov_tolerance(np.diag(g), n))


def test_single_interior_vertex_variance():
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}), (Edge("e", "b", "x", 2.0),))
    block = _fields(spectral.laplacian(net), substream(2), 100_000)
    assert np.var(block) == pytest.approx(0.5, abs=4 * 0.5 * math.sqrt(2 / 100_000))


def test_twisted_empirical_moments(pt):
    net, gauge = pt
    n = 100_000
    block = _fields(spectral.twisted_laplacian(net, gauge), substream(3), n)
    gs = twisted_green(net, gauge).entries
    emp = empirical_cov(block)
    assert np.all(np.abs(emp - gs) <= cov_tolerance(np.diag(gs) + 0.5, n))
    iy, iz = net.interior_index["y"], net.interior_index["z"]
    assert emp[iy, iz] < 0  # matches the negative Green entry -2/7
    assert abs(block.mean()) < 4 / math.sqrt(n)  # symmetric in law


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_fields_equal_the_green_cholesky_sampler():
    """On the same draws, the fields from the Laplacian's factor are the
    reference's Cholesky factor of G, taken in the factor's order, times z to
    1e-12 relative: plain and twisted on PT, the 6 x 8 annulus, 30 random
    networks and polar_annulus(49, 24), whose 1,176 vertices take the banded
    route in reverse Cuthill-McKee order, and on the double covers of the
    first two.  On the dense route the reference is chol(G) @ z."""
    rng = np.random.default_rng(31)
    cases = [pendant_triangle(), load_network(NETWORKS / "annulus-6x8.json")]
    for net, gauge in cases:
        sample_cover_gff_batch(net, gauge, 7, 64)
        cover_net = vars(gauge)["_double_cover"].cover_network  # cached by that call
        phi = _fields(spectral.laplacian(cover_net), substream(7), 64)
        assert _relative_gap(phi, reference_fields(cover_net, None, substream(7), 64)) <= 1e-12
    cases += [random_network(rng) for _ in range(30)] + [polar_annulus(49, 24)]
    assert len(cases[-1][0].interior) > spectral.DENSE_MAX_ORDER
    for seed, (net, gauge) in enumerate(cases):
        for sigma in (None, gauge):
            lap = spectral.twisted_laplacian(net, sigma) if sigma else spectral.laplacian(net)
            got = _fields(lap, substream(seed), 64)
            assert _relative_gap(got, reference_fields(net, sigma, substream(seed), 64)) <= 1e-12


def _traced_peak(call):
    """call()'s result and the tracemalloc peak, in bytes, of what it allocated."""
    import tracemalloc

    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_estimators_on_the_banded_route_form_no_square_array():
    """On polar_annulus(49, 24), 1,176 interior vertices, above
    DENSE_MAX_ORDER, the event and connectivity estimators draw their fields
    and read their targets from banded factors of the Laplacians, allocating
    less than a quarter of one m x m array at any time.  Their batches are
    small, because the labelling kernel's graph grows with the batch.  A
    first run, untraced, on an equal network (the traced run would otherwise
    read its cached factors), loads the modules the banded route imports."""
    net, gauge = polar_annulus(49, 24)
    m = len(net.interior)
    assert m > spectral.DENSE_MAX_ORDER

    def run(net, gauge):
        return (estimate_event_probability(net, gauge, 256, 1, batch_size=8),
                two_point_connectivity(net, ("r25s00", "r25s12"), 256, 2, batch_size=8))

    run(*polar_annulus(49, 24))
    (event, same), peak = _traced_peak(lambda: run(net, gauge))
    assert peak < m * m * 8 / 4
    assert event.target == pytest.approx(ggff.det_ratio(net, gauge), rel=1e-10)
    g = ggff.restricted_green(net, ("r25s00", "r25s12")).entries
    assert same.target == pytest.approx(
        (2 / math.pi) * math.asin(g[0, 1] / math.sqrt(g[0, 0] * g[1, 1])), rel=1e-10)
    for rep in (event, same):
        assert abs(rep.estimate - rep.target) <= 4 * rep.std_error


def test_dense_estimator_batches_hold_a_bounded_working_set():
    """One 2,048-sample batch of each estimator on polar_annulus(24, 12), 288
    interior vertices on the dense route, allocates less than four (m, n)
    float arrays at any time: the edge products and uniforms are formed in
    row blocks, and the int32 labels take half the fields' bytes.  A first
    run on an equal network loads the modules."""
    pair = ("r12s11", "r12s00")

    def calls(net, gauge):
        return (lambda: estimate_event_probability(net, gauge, 2048, 1, batch_size=2048),
                lambda: conditional_moment(net, gauge, pair, 2048, 1, batch_size=2048),
                lambda: two_point_connectivity(net, pair, 2048, 1, batch_size=2048))

    for call in calls(*polar_annulus(24, 12)):
        call()
    net, gauge = polar_annulus(24, 12)
    m, n = len(net.interior), 2048
    assert m <= spectral.DENSE_MAX_ORDER
    for call in calls(net, gauge):
        rep, peak = _traced_peak(call)
        assert rep.n_samples == n
        assert peak < 4 * m * n * 8


def test_cover_labels_hold_only_their_labels_and_a_chunk():
    """_cover_labels on 2,048 columns of annulus marks, signed and unsigned,
    allocates at most 6 MB beyond the int32 labels it returns: each chunk's
    marks are gathered as it is labelled, its open -1 edges' quotient cover
    is formed for that chunk alone, and both sheets' labels are written in
    place."""
    net, gauge = polar_annulus(24, 12)
    m, n = len(net.interior), 2048
    _, u, v, c = net.interior_edges
    opened = _open_marks(_fields(spectral.laplacian(net), substream(5), n), u, v, c, substream(6))
    cover_labels(m, u, v, gauge.interior_signs, opened[:, :1])  # loads scipy.sparse
    for rel in (gauge.interior_signs, np.ones_like(gauge.interior_signs)):
        lab, peak = _traced_peak(lambda: cover_labels(m, u, v, rel, opened))
        assert lab.dtype == np.int32 and lab.shape == (n, m, 2)
        assert peak < lab.nbytes + 6e6


@pytest.mark.parametrize("operation", ["event", "moment", "metric field"])
def test_a_gauge_of_another_network_is_refused_before_any_draw(pt, monkeypatch, operation):
    """A gauge field of another network is refused before a field is drawn,
    whether that network has another size, whose signs would not broadcast
    in a batch, or the same size, where the Monte Carlo would run to its end."""
    net, _ = pt
    drawn = []
    monkeypatch.setattr(ggff.gff, "_fields", lambda *args: drawn.append(args))
    equal_size = with_conductances(net, [2.0 * e.conductance for e in net.edges])
    run = {"event": lambda g: estimate_event_probability(net, g, 1000, 1),
           "moment": lambda g: conditional_moment(net, g, ("x", "y"), 1000, 1),
           "metric field": lambda g: sample_metric_field(net, g, 4, 1)}[operation]
    for other in (polar_annulus(6, 8)[1], GaugeField.with_minus_edges(equal_size, [("y", "z")])):
        with pytest.raises(ValueError, match="different network"):
            run(other)
    assert drawn == []


def test_trivial_gauge_certificate_conjugation():
    rng = np.random.default_rng(4)
    net, _ = random_network(rng, max_interior=5)
    from conftest import random_trivial_gauge

    gauge = random_trivial_gauge(rng, net)
    ok, cert = ggff.is_trivial(gauge)
    assert ok
    n = 60_000
    block = _fields(spectral.twisted_laplacian(net, gauge), substream(5), n)
    s = np.array([cert.signs[v] for v in net.interior])
    g = green(net).entries
    emp = empirical_cov(s[:, None] * block)
    assert np.all(np.abs(emp - g) <= cov_tolerance(np.diag(g) + 0.5, n))


def test_cover_projection_laws(pt):
    net, gauge = pt
    n = 100_000
    plus, minus = sample_cover_gff_batch(net, gauge, seed=6, n=n)
    g = green(net).entries
    gs = twisted_green(net, gauge).entries
    tol = cov_tolerance(np.diag(g) + 0.5, n)
    assert np.all(np.abs(empirical_cov(plus) - g) <= tol)
    assert np.all(np.abs(empirical_cov(minus) - gs) <= tol)
    assert np.all(np.abs(plus @ minus.T / n) <= tol)  # independence


def test_cover_projection_trivial_gauge(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    n = 60_000
    plus, minus = sample_cover_gff_batch(pt_net, gauge, seed=7, n=n)
    g = green(pt_net).entries
    tol = cov_tolerance(np.diag(g) + 0.5, n)
    assert np.all(np.abs(empirical_cov(minus) - g) <= tol)


def test_cover_project_single_sample_consistency(pt):
    """A one-column sample_cover_gff_batch is the sheet sum and difference,
    scaled by 1/sqrt(2), of the field _fields draws on the cover that the
    call cached on the gauge."""
    net, gauge = pt
    plus, minus = sample_cover_gff_batch(net, gauge, seed=8, n=1)
    cover_net = vars(gauge)["_double_cover"].cover_network
    phi = _fields(spectral.laplacian(cover_net), substream(8), 1)[:, 0]
    idx = cover_net.interior_index
    inv = 1 / math.sqrt(2)
    for i, x in enumerate(net.interior):
        a, b = phi[idx[f"({x},1)"]], phi[idx[f"({x},2)"]]
        assert plus[i, 0] == pytest.approx(inv * (a + b), abs=1e-15)
        assert minus[i, 0] == pytest.approx(inv * (a - b), abs=1e-15)


def test_open_probability_values():
    assert open_probability(1.0, 1.0, 1.0) == pytest.approx(1 - math.exp(-2), abs=1e-15)
    assert open_probability(2.0, 0.5, 2.0) == pytest.approx(1 - math.exp(-4), abs=1e-12)
    assert open_probability(1.0, 1.0, -1.0) == 0.0
    assert open_probability(1.0, 0.0, 1.0) == 0.0


def test_open_probability_against_discretized_bridge():
    """Convergence oracle: simulate the interpolating bridge on finer and finer
    meshes and count sign changes; the no-zero frequency must decrease toward
    the closed form (discretization can only miss crossings)."""
    a = b = 1.0
    length = 1.0
    closed = open_probability(1.0, a, b)
    rng = np.random.default_rng(10)
    n = 40_000
    estimates = []
    for steps in (64, 512, 4096):
        w = np.full(n, a)
        alive = np.ones(n, bool)
        dt = length / steps
        t = 0.0
        for k in range(1, steps):
            t = k * dt
            rem = length - (t - dt)
            mean = w + (b - w) * (dt / rem)
            var = dt * (rem - dt) / rem
            w2 = mean + math.sqrt(var) * rng.standard_normal(n)
            alive &= np.sign(w2) == np.sign(w)
            w = w2
        estimates.append(alive.mean())
    assert estimates[0] > estimates[1] > estimates[2] > closed - 4 * math.sqrt(closed * (1 - closed) / n)
    assert estimates[2] - closed < 0.008  # residual mesh bias bound at 4096 steps


def test_cluster_configuration_structure(pt):
    """A sampled configuration: the same seeds give the same marks, an open
    edge joins two vertices of one nonzero sign, and the open subgraph's
    labels put the two ends of every open edge in one cluster."""
    net, _ = pt
    _, iu, iv, c = net.interior_edges
    phi = _fields(spectral.laplacian(net), substream(11), 8)
    opened = _open_marks(phi, iu, iv, c, substream(12))
    assert np.array_equal(_open_marks(phi, iu, iv, c, substream(12)), opened)
    assert opened.any()
    assert np.all((np.sign(phi[iu]) == np.sign(phi[iv])) & (phi[iu] != 0) | ~opened)
    plain = labels(net, np.ones_like(iu), opened)[:, :, 0]
    assert np.all((plain[:, iu] == plain[:, iv]).T | ~opened)


def test_opposite_sign_edges_always_closed(pt_net):
    _, iu, iv, c = pt_net.interior_edges
    for seed in range(30):
        phi = _fields(spectral.laplacian(pt_net), substream(seed), 1)
        opened = _open_marks(phi, iu, iv, c, substream(seed + 1000))
        assert not opened[np.sign(phi[iu]) != np.sign(phi[iv])].any()


def test_empirical_open_rate_matches_formula(pt_net):
    # condition on nearly-fixed endpoint values via rejection would be slow;
    # instead check the aggregate: P(open) = E[p(phi_u, phi_v)] by comparing
    # the Bernoulli frequency with the integrated formula on the same samples
    n = 60_000
    rng = substream(14)
    phi = _fields(spectral.laplacian(pt_net), rng, n)
    keys, iu, iv, c = pt_net.interior_edges
    opened = _open_marks(phi, iu, iv, c, rng)
    probs = np.where(np.sign(phi[iu]) == np.sign(phi[iv]),
                     -np.expm1(-2 * c[:, None] * np.abs(phi[iu] * phi[iv])), 0.0)
    for row in range(len(keys)):
        target = probs[row].mean()
        freq = opened[row].mean()
        se = math.sqrt(max(target * (1 - target), 1e-12) / n)
        assert abs(freq - target) <= 4 * se


def test_open_marks_match_the_sign_rule():
    """One sign test on the product phi(u)*phi(v) opens exactly the edges the
    separate sign, zero and absolute-value tests open, and exactly those of
    the out-of-place product rule with its absolute value, from the same
    uniforms and leaving the generator in the same state: on signed zeros,
    opposite signs, a product that underflows to 0, products whose open
    probability saturates at 1.0, one that overflows to inf, and on seeded
    fields, sampled annulus blocks and values spread over 400 decades.  The
    product rule draws every uniform at once, as _open_marks did before its
    row blocks, so the blocks are checked against it where they divide
    neither the edges nor the samples."""
    def reference(phi, edge_u, edge_v, edge_c, rng):
        a, b = phi[edge_u, :], phi[edge_v, :]
        u = rng.random((len(edge_u), phi.shape[1]))
        same = (np.sign(a) == np.sign(b)) & (a != 0) & (b != 0)
        return same & (u < -np.expm1(-2.0 * edge_c[:, None] * np.abs(a * b)))

    def product_rule(phi, edge_u, edge_v, edge_c, rng):
        ab = phi[edge_u, :] * phi[edge_v, :]
        u = rng.random((len(edge_u), phi.shape[1]))
        return (ab > 0) & (u < -np.expm1(-2.0 * edge_c[:, None] * np.abs(ab)))

    def check(phi, edge_u, edge_v, edge_c, seed):
        rng = substream(seed)
        marks = _open_marks(phi, edge_u, edge_v, edge_c, rng)
        for rule in (reference, product_rule):
            ref_rng = substream(seed)
            assert np.array_equal(marks, rule(phi, edge_u, edge_v, edge_c, ref_rng))
            assert rng.bit_generator.state == ref_rng.bit_generator.state
        return marks

    one_edge = (np.array([0]), np.array([1]), np.array([1.0]))
    pairs = [(0.0, 1.0), (-0.0, 1.0), (-0.0, -1.0), (0.0, -0.0), (1.0, -1.0),
             (-2.0, 0.5), (1e-200, 1e-200), (-1e-200, -1e-200), (1e200, 1e200),
             (-1e200, -1e200), (1.0, 1.0), (-0.7, -0.4), (20.0, 3.0), (-1e100, -1e100)]
    with np.errstate(over="ignore"):  # 1e200 * 1e200
        grid = check(np.array(pairs * 50).T, *one_edge, 0).reshape(-1, len(pairs))
    assert not grid[:, [i for i, (a, b) in enumerate(pairs) if not a * b > 0]].any()
    for saturated in ((1e200, 1e200), (20.0, 3.0), (-1e100, -1e100)):
        assert -np.expm1(-2.0 * abs(saturated[0] * saturated[1])) == 1.0
        assert grid[:, pairs.index(saturated)].all()
    # products of -900: exp(1800) would overflow without the absolute value
    check(np.array([[-30.0, 30.0, -30.0], [30.0, -30.0, -30.0]]), *one_edge, 1)
    annulus = load_network(NETWORKS / "annulus-6x8.json")[0]
    _, eu, ev, c = annulus.interior_edges
    for seed in range(3):
        phi = _fields(spectral.laplacian(annulus), substream(seed), 64)
        check(phi, eu, ev, c, seed + 2)
        spread = phi * 10.0 ** substream(seed, 1).uniform(-200, 200, phi.shape)
        spread[substream(seed, 2).random(phi.shape) < 0.05] = 0.0
        with np.errstate(over="ignore", under="ignore"):
            check(spread, eu, ev, c, seed + 5)
    # 24 x 12 annulus at 4,097 samples: the row blocks divide neither its 564
    # edges nor the samples
    annulus = polar_annulus(24, 12)[0]
    _, eu, ev, c = annulus.interior_edges
    assert len(eu) % (_OPEN_BLOCK // 4097) and 4097 % (_OPEN_BLOCK // 4097)
    for n in (4097, 1, 0):
        check(_fields(spectral.laplacian(annulus), substream(n), n), eu, ev, c, n + 8)


def per_edge_marks(values, network, seed):
    """The edge-by-edge opening rule on a field given as {vertex: value}: one
    uniform per interior edge in sorted key order, the edge open when it
    falls below open_probability."""
    ints = set(network.interior)
    int_edges = [k for k in network.sorted_edge_keys if k[0] in ints and k[1] in ints]
    draws = substream(seed).random(len(int_edges))
    return [bool(u < open_probability(network.edge_map[k].conductance,
                                      values[k[0]], values[k[1]]))
            for k, u in zip(int_edges, draws)]


def test_cluster_configuration_follows_the_per_edge_rule(pt):
    """The vectorised opening rule _open_marks gives the per-edge rule's
    marks, on PT, the 6 x 8 annulus and 20 random networks, at several seeds
    each, and on PT fields with zero and opposite-sign values."""
    rng = np.random.default_rng(22)
    networks = [pt[0], load_network(NETWORKS / "annulus-6x8.json")[0]]
    networks += [random_network(rng)[0] for _ in range(20)]
    samples = [(net, _fields(spectral.laplacian(net), substream(seed), 1)[:, 0])
               for net in networks for seed in (1, 2, 3)]
    assert pt[0].interior == ("x", "y", "z")
    samples += [(pt[0], np.array(values))
                for values in ([0.0, 1.0, 1.5], [-1.0, 1.0, 0.5], [-0.3, -2.0, -1.0])]
    for net, phi in samples:
        _, iu, iv, c = net.interior_edges
        for seed in (10, 11, 12):
            got = _open_marks(phi[:, None], iu, iv, c, substream(seed))[:, 0]
            assert got.tolist() == per_edge_marks(dict(zip(net.interior, phi)), net, seed)


def brute_force_balanced(edge_open, gauge):
    """Oracle: per open component, try every sign assignment exhaustively."""
    open_edges = [k for k, o in edge_open.items() if o]
    verts = sorted({v for k in open_edges for v in k})
    adj = {v: [] for v in verts}
    for u, v in open_edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    for r in verts:
        if r in seen:
            continue
        comp = []
        stack = [r]
        seen.add(r)
        while stack:
            w = stack.pop()
            comp.append(w)
            for z in adj[w]:
                if z not in seen:
                    seen.add(z)
                    stack.append(z)
        comp_edges = [k for k in open_edges if k[0] in comp and k[1] in comp]
        ok = False
        for bits in itertools.product((1, -1), repeat=len(comp)):
            s = dict(zip(comp, bits))
            if all(s[u] * gauge.signs[(u, v)] * s[v] == 1 for u, v in comp_edges):
                ok = True
                break
        if not ok:
            return False
    return True


def random_marks(rng, net):
    """Vertex signs, and a mark for every edge: each eligible edge is open
    with probability 0.55."""
    signs = {v: int(rng.choice([-1, 0, 1], p=[0.45, 0.1, 0.45]))
             for v in net.interior}
    ints = set(net.interior)
    edge_open = {}
    for k in net.sorted_edge_keys:
        u, v = k
        eligible = u in ints and v in ints and signs[u] == signs[v] != 0
        edge_open[k] = bool(eligible and rng.random() < 0.55)
    return signs, edge_open


def opened_columns(net, marks):
    """random_marks draws as _cover_labels' opened array: one row per
    interior edge of net, one column per draw."""
    keys = net.interior_edges[0]
    return np.array([[edge_open[k] for _, edge_open in marks] for k in keys],
                    dtype=bool).reshape(len(keys), len(marks))


def labels(net, rel, opened):
    """_cover_labels of the opened columns on net's interior edges, signed rel."""
    _, u, v, _ = net.interior_edges
    return cover_labels(len(net.interior), u, v, rel, opened)


def test_detect_event_trivial_cases(pt):
    net, gauge = pt
    opened = np.array([[False, True]] * len(net.interior_edges[0]))
    # with nothing open PT is in the event; its triangle has sign product -1
    assert _balanced(labels(net, gauge.interior_signs, opened)).tolist() == [True, False]


def test_detect_event_methods_agree_with_brute_force():
    """The kernel's verdict, the union-find and the cycle detector each agree
    with exhaustive search on 400 random networks, one configuration each."""
    rng = np.random.default_rng(15)
    for _ in range(400):
        net, gauge = random_network(rng, max_interior=7)
        marks = [random_marks(rng, net)]
        balanced = _balanced(labels(net, gauge.interior_signs, opened_columns(net, marks)))
        for (_, edge_open), got in zip(marks, balanced):
            verdicts = (bool(got), union_find_balanced(net, edge_open, gauge),
                        cycles_balanced(edge_open, gauge))
            assert verdicts == (brute_force_balanced(edge_open, gauge),) * 3


def test_detect_event_gauge_invariance():
    rng = np.random.default_rng(16)
    for _ in range(60):
        net, gauge = random_network(rng, max_interior=7)
        opened = opened_columns(net, [random_marks(rng, net)])
        vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1)
                               for v in net.vertices})
        assert np.array_equal(
            _balanced(labels(net, gauge.interior_signs, opened)),
            _balanced(labels(net, apply_gauge_transform(vs, gauge).interior_signs, opened)))


def test_sign_flip_transform_examples(pt):
    net, gauge = pt
    # only the -1 edge yz open: z flips; only the +1 edge xy open: no flip
    opened = np.array([[k == ("y", "z"), k == ("x", "y")] for k in net.interior_edges[0]])
    lab = labels(net, gauge.interior_signs, opened)
    assert _balanced(lab).all()
    tau = _label_sign(lab[:, :, 0])
    assert tau.tolist() == [[1, 1, -1], [1, 1, 1]]
    assert np.array_equal(_label_sign(labels(net, gauge.interior_signs, opened)[:, :, 0]),
                          tau)  # deterministic


def test_sign_flip_transform_properties():
    """On 60 random configurations in the event, the kernel's tau is +-1,
    makes every open edge's sign product +1, keeps the sign of each open
    cluster's smallest vertex, and leaves a cluster whose open edges are all
    +1 alone; the clusters are the open subgraph's, labelled unsigned."""
    rng = np.random.default_rng(17)
    accepted = 0
    while accepted < 60:
        net, gauge = random_network(rng, max_interior=7)
        signs, edge_open = random_marks(rng, net)
        opened = opened_columns(net, [(signs, edge_open)])
        lab = labels(net, gauge.interior_signs, opened)
        if not _balanced(lab)[0]:
            continue
        accepted += 1
        tau = dict(zip(net.interior, _label_sign(lab[0, :, 0]).tolist()))
        assert all(t in (-1, 1) for t in tau.values())
        for (u, v), o in edge_open.items():
            if o:
                assert tau[u] * gauge.signs[(u, v)] * tau[v] == 1
        clusters = {}
        plain = labels(net, np.ones_like(gauge.interior_signs), opened)[0, :, 0]
        for x, cluster in zip(net.interior, plain.tolist()):
            clusters.setdefault(cluster, []).append(x)
        for comp in clusters.values():
            assert tau[min(comp)] == 1  # smallest id keeps its original sign
            # a component whose open edges are all +1 is left alone entirely
            if all(gauge.signs[k] == 1 for k, o in edge_open.items()
                   if o and k[0] in comp):
                assert all(tau[v] == 1 for v in comp)


def test_estimate_event_probability_trivial_gauge_is_exactly_one(pt_net):
    rep = estimate_event_probability(pt_net, GaugeField.all_plus(pt_net), 2000, seed=0)
    assert rep.estimate == 1.0 and rep.std_error == 0.0 and rep.target == pytest.approx(1.0)


def test_estimate_event_probability_gauge_equivalent_same_path(pt):
    net, gauge = pt
    vs = VertexSigns.with_minus_vertices(net, ["y"])
    rep1 = estimate_event_probability(net, gauge, 20_000, seed=5)
    rep2 = estimate_event_probability(net, apply_gauge_transform(vs, gauge), 20_000, seed=5)
    assert rep1.estimate == rep2.estimate  # identical event sequence, same seed


def test_estimate_event_probability_strictly_inside_unit_interval(pt):
    net, gauge = pt
    rep = estimate_event_probability(net, gauge, 50_000, seed=6)
    assert rep.estimate - 3 * rep.std_error > 0.0
    assert rep.estimate + 3 * rep.std_error < 1.0


def test_conditional_moment_trivial_gauge(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    rep = conditional_moment(pt_net, gauge, ("x", "y"), 30_000, seed=7)
    assert rep.n_accepted == rep.n_samples  # conditioning on everything
    assert rep.target == pytest.approx(1.0)  # G(x,y) = 1 on PT
    assert abs(rep.estimate - 1.0) <= 3 * rep.std_error


def test_conditional_moment_zero_acceptance_raises(pt):
    net, gauge = pt
    seed = next(s for s in range(200)
                if estimate_event_probability(net, gauge, 1, seed=s).estimate == 0.0)
    with pytest.raises(RuntimeError, match="never occurred"):
        conditional_moment(net, gauge, ("x", "x"), 1, seed=seed)


def test_conditional_moment_rejects_boundary_vertex(pt):
    net, gauge = pt
    with pytest.raises(ValueError, match="interior"):
        conditional_moment(net, gauge, ("b", "x"), 10, seed=0)


def test_two_point_connectivity_same_vertex_is_one(pt_net):
    rep = two_point_connectivity(pt_net, ("x", "x"), 500, seed=0)
    assert rep.estimate == 1.0 and rep.std_error == 0.0


def test_two_point_connectivity_disconnected_interior_is_zero():
    net = ElectricalNetwork(("m", "u", "v"), frozenset({"m"}),
                            (Edge("e0", "u", "m", 1.0), Edge("e1", "m", "v", 1.0)))
    rep = two_point_connectivity(net, ("u", "v"), 2000, seed=1)
    assert rep.estimate == 0.0


def test_metric_field_middle_limits_and_continuity(pt):
    net, gauge = pt
    grid = sample_metric_field(net, gauge, 8, seed=21)
    ke = edge_key("y", "z")
    lo, hi = grid.edges[ke].middle_limits
    assert hi == -lo  # exact negation, so |field| is continuous at the middle
    for k, ef in grid.edges.items():
        assert (ef.middle_limits is None) == (gauge.signs[k] == 1)
        assert len(ef.positions) == len(ef.values) == 8
        length = 1.0 / net.edge_map[k].conductance
        assert np.all((ef.positions > 0) & (ef.positions < length))
    assert sample_metric_field(net, gauge, 8, seed=21).vertex_values == grid.vertex_values


def _grid_covariance_check(net, gauge, n_sub, n_samples, seed, k_se=4.5):
    from ggff import spectral

    sub, gauge_n = subdivide(net, gauge, n_sub)
    gref = spectral.twisted_green(sub.network, gauge_n)
    order = gref.interior_order
    cols = []
    for s in range(n_samples):
        grid = sample_metric_field(net, gauge, n_sub - 1, seed=seed + s)
        vals = dict(grid.vertex_values)
        for k, ef in grid.edges.items():
            eid = net.edge_map[k].id
            for j, val in enumerate(ef.values, start=1):
                vals[f"{eid}#{j}"] = float(val)
        cols.append([vals[v] for v in order])
    x = np.array(cols).T
    emp = x @ x.T / n_samples
    dii = np.diag(gref.entries)
    se = np.sqrt((np.outer(dii, dii) + gref.entries ** 2) / n_samples)
    return float(np.max(np.abs(emp - gref.entries) / se)), k_se


def test_metric_field_restriction_matches_twisted_subdivision(pt):
    net, gauge = pt
    worst, k = _grid_covariance_check(net, gauge, 3, 20_000, seed=3000)
    assert worst <= k


def test_metric_field_restriction_matches_untwisted_subdivision(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    worst, k = _grid_covariance_check(pt_net, gauge, 3, 20_000, seed=4000)
    assert worst <= k


def test_event_and_conditional_law_on_general_networks():
    """The determinant identity and the conditioned moments are not special to
    the pendant triangle: check them on random topologies with general
    conductances, several -1 edges, and trivial-but-nonuniform gauges."""
    rng = np.random.default_rng(100)
    for trial in range(4):
        net, gauge = random_network(rng, max_interior=6)
        rep = estimate_event_probability(net, gauge, 60_000, seed=trial)
        se = max(rep.std_error, 1e-12)
        assert abs(rep.estimate - rep.target) <= 4 * se
        ints = net.interior
        x, y = ints[0], ints[min(1, len(ints) - 1)]
        cm = conditional_moment(net, gauge, (x, y), 60_000, seed=trial + 50)
        assert abs(cm.estimate - cm.target) <= 4 * max(cm.std_error, 1e-12)
        cn = two_point_connectivity(net, (x, y), 60_000, seed=trial + 90)
        assert abs(cn.estimate - cn.target) <= 4 * max(cn.std_error, 1e-12)


def gauge_class_representatives(net: ElectricalNetwork) -> list[GaugeField]:
    """One gauge per class of the interior graph's cycle space: +1 on a
    spanning forest of the interior graph, grown in sorted edge order, and on
    every boundary edge, and each of the 2^k sign patterns on the k interior
    edges outside the forest."""
    keys, u, v, _ = net.interior_edges
    root = list(range(len(net.interior)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    outside = []
    for key, a, b in zip(keys, u.tolist(), v.tolist()):
        ra, rb = find(a), find(b)
        if ra == rb:
            outside.append(key)
        root[ra] = rb
    return [GaugeField.with_minus_edges(net, itertools.compress(outside, minus))
            for minus in itertools.product((False, True), repeat=len(outside))]


def test_theorem1_averaged_over_all_gauge_classes():
    """E[2^-beta_1(open)] = 2^-k sum_sigma det_ratio(net, sigma) over the 2^k
    gauge classes, k the interior graph's cycle rank: the open subgraph is
    balanced for exactly 2^(k - beta_1) of them.  beta_1 = open edges - m +
    open clusters, read from one unsigned labelling of 40,000 field samples
    and their marks, on PT and six random networks with 2 <= k <= 10, within
    4 SE; the whole sum of 2^k determinant ratios checked by one run."""
    rng = np.random.default_rng(13)
    cases = [pendant_triangle()[0]]
    while len(cases) < 7:
        net, _ = random_network(rng, max_interior=8)
        if 4 <= len(gauge_class_representatives(net)) <= 2 ** 10:
            cases.append(net)
    n = 40_000
    for i, net in enumerate(cases):
        gauges = gauge_class_representatives(net)
        target = sum(ggff.det_ratio(net, g) for g in gauges) / len(gauges)
        m, (_, u, v, c) = len(net.interior), net.interior_edges
        stream = substream(61, i)
        phi = _fields(spectral.laplacian(net), stream, n)
        marks = _open_marks(phi, u, v, c, stream)
        lab = cover_labels(m, u, v, np.ones_like(u), marks)[:, :, 0]
        clusters = 1 + np.count_nonzero(np.diff(np.sort(lab, axis=1), axis=1), axis=1)
        x = 2.0 ** -(marks.sum(axis=0) - m + clusters)
        z = (x.mean() - target) / (x.std() / math.sqrt(n))
        assert abs(z) <= 4, (i, len(gauges), z)


def _union_find_column(m, edges):
    """Event verdict, canonical tau and class root per vertex of one open
    subgraph, from the union-find with signs (every union runs, so the
    classes are complete even outside the event); tau is +1 at the smallest
    vertex of each class."""
    uf = ParityUnionFind(m)
    ok = all([uf.union(int(u), int(v), int(r)) for u, v, r in edges])
    found = [uf.find(i) for i in range(m)]
    lowest_sign = {}
    for root, sign in found:
        lowest_sign.setdefault(root, sign)
    return ok, [sign * lowest_sign[root] for root, sign in found], [r for r, _ in found]


def doubled_lift_labels(m, edge_u, edge_v, rel, opened):
    """The labels _cover_labels must return, read off the double cover of
    every open subgraph at once: cover node 2*(s*m + v) + sheet, an open +1
    edge joining the same-sheet lifts of its ends and an open -1 edge the
    cross lifts, each node labelled with the smallest node of its component
    less 2*m*s, that node's number 2*v + sheet within its sample s."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    nodes = 2 * m * opened.shape[1]
    e, s = np.nonzero(opened)
    sheet = np.arange(2)[:, None]
    tails = 2 * (s * m + edge_u[e]) + sheet
    heads = 2 * (s * m + edge_v[e]) + (sheet ^ (rel[e] == -1))
    _, part = connected_components(
        coo_array((np.ones(tails.size), (tails.ravel(), heads.ravel())), shape=(nodes, nodes)),
        directed=True, connection="weak")
    low = np.full(nodes, nodes)
    np.minimum.at(low, part, np.arange(nodes))
    shift = 2 * m * np.arange(opened.shape[1])[:, None, None]
    return (low[part].reshape(-1, m, 2) - shift).astype(np.int32)


def assert_matches_union_find(lab, m, eu, ev, rel, opened):
    """Each column of lab gives the union-find's event verdict, its tau in
    the event, and its classes: x and y share one iff lab[s, x, 0] is one of
    y's labels."""
    balanced = _balanced(lab)
    for s in range(opened.shape[1]):
        cols = np.flatnonzero(opened[:, s])
        ok, tau, roots = _union_find_column(m, zip(eu[cols], ev[cols], rel[cols]))
        assert balanced[s] == ok
        if ok:
            assert list(1 - 2 * (lab[s, :, 0] % 2)) == tau
        for x, y in itertools.product(range(m), repeat=2):
            assert (lab[s, x, 0] in (lab[s, y, 0], lab[s, y, 1])) == (roots[x] == roots[y])


def test_cover_labels_match_union_find_column_by_column(monkeypatch):
    """Event, tau at every vertex and same-cluster for every pair, on batches
    split over many labelling calls, one sample per call on the larger
    networks; the star has no edge between interior vertices.  All signs +1
    leave the second stage empty, and must give the labels the doubled-lift
    oracle reads off the double cover itself."""
    rng = np.random.default_rng(21)
    star = ElectricalNetwork(("b", "x", "y", "z"), frozenset({"b"}),
                             tuple(Edge(f"e{v}", "b", v, 1.0) for v in "xyz"))
    cases = [(star, GaugeField.all_plus(star))]
    cases += [random_network(rng) for _ in range(30)]
    cases += [random_network(rng, max_interior=60) for _ in range(3)]
    for net, gauge in cases:
        _, eu, ev, _ = net.interior_edges
        m, rel, plus = len(net.interior), gauge.interior_signs, np.ones_like(gauge.interior_signs)
        opened = rng.random((len(rel), 40)) < rng.uniform(0.2, 0.9)
        opened[:, 0] = False
        oracle = doubled_lift_labels(m, eu, ev, plus, opened)
        one_call = cover_labels(m, eu, ev, rel, opened)
        assert np.array_equal(cover_labels(m, eu, ev, plus, opened), oracle)
        monkeypatch.setattr(ggff.cover, "_COVER_NODES_PER_CALL", 100)
        lab = cover_labels(m, eu, ev, rel, opened)
        same = cover_labels(m, eu, ev, plus, opened)
        assert np.array_equal(same, oracle)
        monkeypatch.undo()
        for signs in (rel, plus):
            assert cover_labels(m, eu, ev, signs, opened[:, :0]).shape == (0, m, 2)
        assert np.array_equal(lab, one_call)
        assert _balanced(lab)[0] and np.all(lab[0, :, 0] == 2 * np.arange(m))
        assert_matches_union_find(lab, m, eu, ev, rel, opened)
        assert_matches_union_find(same, m, eu, ev, plus, opened)


def test_cover_labels_equal_the_doubled_lift_labels(monkeypatch):
    """The two-stage kernel returns the doubled-lift oracle's labels bit for
    bit: on 2,048 columns of annulus marks in one call, and on 30 random
    networks with their drawn signs, all +1 and all -1, in calls of at most
    100 nodes."""
    net, gauge = polar_annulus(24, 12)
    m, (_, u, v, c) = len(net.interior), net.interior_edges
    opened = _open_marks(_fields(spectral.laplacian(net), substream(5), 2048), u, v, c, substream(6))
    rel = gauge.interior_signs
    assert (cover_labels(m, u, v, rel, opened).tobytes()
            == doubled_lift_labels(m, u, v, rel, opened).tobytes())
    rng = np.random.default_rng(23)
    monkeypatch.setattr(ggff.cover, "_COVER_NODES_PER_CALL", 100)
    for _ in range(30):
        net, gauge = random_network(rng)
        m, (_, u, v, _) = len(net.interior), net.interior_edges
        opened = rng.random((len(u), 30)) < rng.uniform(0.2, 0.9)
        for rel in (gauge.interior_signs, np.ones_like(u), -np.ones_like(u)):
            assert (cover_labels(m, u, v, rel, opened).tobytes()
                    == doubled_lift_labels(m, u, v, rel, opened).tobytes())


def test_cover_labels_of_targeted_quotients():
    """Six vertices, +1 edges 0-1, 2-3, 4-5 and 1-2, -1 edges 0-2, 1-2, 3-4,
    0-3 and 5-0.  Columns: a -1 edge inside one +1 cluster, {0, 1, 2}
    (unbalanced); in +1 clusters {0, 1}, {2, 3} and {4, 5}, -1 edges 1-2 and
    3-4 through all three (a path, balanced), then also 0-3, closing an even
    cycle through two (balanced), then also 5-0, closing an odd cycle through
    all three (unbalanced); no -1 edge open; and nothing open.  Each column
    agrees with the union-find and the doubled-lift oracle, and a batch of no
    columns gives no labels."""
    eu = np.array([0, 2, 4, 1, 0, 1, 3, 0, 5])
    ev = np.array([1, 3, 5, 2, 2, 2, 4, 3, 0])
    rel = np.array([1, 1, 1, 1, -1, -1, -1, -1, -1])
    opened = np.array([[1, 1, 1, 1, 1, 0], [0, 1, 1, 1, 1, 0], [0, 1, 1, 1, 1, 0],
                       [1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 1, 1, 0, 0],
                       [0, 1, 1, 1, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 1, 0, 0]], dtype=bool)
    lab = cover_labels(6, eu, ev, rel, opened)
    assert lab.tobytes() == doubled_lift_labels(6, eu, ev, rel, opened).tobytes()
    assert _balanced(lab).tolist() == [False, True, True, False, True, True]
    assert lab[0, :3].tolist() == [[0, 0]] * 3 and lab[3].tolist() == [[0, 0]] * 6
    assert lab[1, :, 0].tolist() == [0, 0, 1, 1, 0, 0]
    assert_matches_union_find(lab, 6, eu, ev, rel, opened)
    empty = cover_labels(6, eu, ev, rel, opened[:, :0])
    assert empty.shape == (0, 6, 2) and empty.dtype == np.int32


def small_networks(rng: np.random.Generator, count: int) -> list:
    """PT, a star of three interior vertices on one boundary vertex, which has
    no interior edge, and count random networks with at most 11 interior edges."""
    star = ElectricalNetwork(("b", "x", "y", "z"), frozenset({"b"}),
                             tuple(Edge(f"e{v}", "b", v, 1.0) for v in "xyz"))
    cases = [pendant_triangle(), (star, GaugeField.all_plus(star))]
    while len(cases) < count + 2:
        net, gauge = random_network(rng, max_interior=8)
        if len(net.interior_edges[0]) <= 11:
            cases.append((net, gauge))
    return cases


def test_cover_table_labels_equal_the_kernel_column_by_column():
    """_cover_table is the kernel's labels of every configuration, j opening
    edge e iff bit e of j is set, and is read-only; _table_labels reads off it
    the kernel's labels of every column, bit for bit: on PT, the star and 40
    random networks with at most 11 interior edges, with their signs and all
    +1, for every configuration in shuffled order and for random marks."""
    rng = np.random.default_rng(34)
    for net, gauge in small_networks(rng, 40):
        _, u, v, _ = net.interior_edges
        m, e = len(net.interior), len(u)
        configs = np.array([[j >> k & 1 for j in range(1 << e)] for k in range(e)],
                           dtype=bool).reshape(e, 1 << e)
        opened = np.concatenate((configs[:, rng.permutation(1 << e)],
                                 rng.random((e, 50)) < rng.uniform(0.2, 0.9)), axis=1)
        for rel in (gauge.interior_signs, np.ones_like(u)):
            table = _cover_table(m, u, v, rel)
            assert table.tobytes() == cover_labels(m, u, v, rel, configs).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0, 0] = 1
            lab = _table_labels(table, opened)
            assert lab.dtype == np.int32 and lab.shape == (opened.shape[1], m, 2)
            assert lab.tobytes() == cover_labels(m, u, v, rel, opened).tobytes()


def test_labels_do_not_depend_on_where_a_column_sits_in_its_batch(monkeypatch):
    """A column's labels, numbered within its own sample, lie below 2*m and
    are the same labelled alone as inside a batch, and a permuted batch gets
    the same labels, permuted: from the kernel in one call and in calls of at
    most 100 nodes, on polar_annulus(12, 8), holed_grid() with its signs and
    all -1 and 20 random networks, and from the table read on PT, the star
    and 20 random networks with at most 11 interior edges."""
    rng = np.random.default_rng(36)
    (annulus, annulus_gauge), (grid, grid_gauge) = polar_annulus(12, 8), holed_grid()
    cases = [(annulus, annulus_gauge.interior_signs), (grid, grid_gauge.interior_signs),
             (grid, -np.ones_like(grid_gauge.interior_signs))]
    cases += [(net, gauge.interior_signs) for net, gauge in
              (random_network(rng) for _ in range(20))]
    cases += [(net, gauge.interior_signs) for net, gauge in small_networks(rng, 20)]
    for net, rel in cases:
        m, (_, u, v, _) = len(net.interior), net.interior_edges
        opened = rng.random((len(u), 40)) < rng.uniform(0.2, 0.9)
        perm = rng.permutation(40)
        readers = [lambda cols: cover_labels(m, u, v, rel, cols)]
        if len(u) <= 11:
            readers.append(partial(_table_labels, _cover_table(m, u, v, rel)))
        for nodes, labels in itertools.product((1 << 16, 100), readers):
            monkeypatch.setattr(ggff.cover, "_COVER_NODES_PER_CALL", nodes)
            lab = labels(opened)
            assert 0 <= lab.min() and lab.max() < 2 * m
            assert np.array_equal(labels(opened[:, perm]), lab[perm])
            for s in (0, 17, 39):
                assert np.array_equal(labels(opened[:, s:s + 1]), lab[s:s + 1])


@pytest.mark.parametrize("threads", [1, 2])
def test_estimators_read_the_kernel_labels_off_the_table(monkeypatch, threads):
    """The three estimators' reports are bit for bit the same whether each
    batch's labels are read off the call's table, with no kernel call per
    batch, or the table is forced off, the kernel labelling every batch on
    its pattern: on PT at first batches of 2^3 = 8 and 64 samples, and on
    random networks at a first batch of 2^E, three batches or more each."""
    def reports(net, gauge, pair, n, batch):
        return [repr(report) for report in (
            estimate_event_probability(net, gauge, n, 5, threads, batch),
            conditional_moment(net, gauge, pair, n, 5, threads, batch),
            two_point_connectivity(net, pair, n, 5, threads, batch))]

    def per_batch_kernel(pattern, opened):
        raise AssertionError("a batch was labelled by the kernel")

    rng = np.random.default_rng(35)
    net, gauge = pendant_triangle()
    cases = [(net, gauge, 8, 20), (net, gauge, 64, 200)]
    for net, gauge in small_networks(rng, 6)[2:]:
        e = len(net.interior_edges[0])
        if 2 <= e <= 6 and len(net.interior) >= 2:
            cases.append((net, gauge, 1 << e, 3 << e))
    assert len(cases) >= 4
    for net, gauge, batch, n in cases:
        pair = net.interior[:2]
        with monkeypatch.context() as patch:
            patch.setattr(ggff.gff, "_cover_labels", per_batch_kernel)
            on = reports(net, gauge, pair, n, batch)
        with monkeypatch.context() as patch:
            patch.setattr(ggff.gff, "_cover_table",
                          lambda m, u, v, rel: _cover_pattern(m, u, v, rel, batch))
            patch.setattr(ggff.gff, "_table_labels", _cover_labels)
            off = reports(net, gauge, pair, n, batch)
        assert on == off
