import itertools
import math

import numpy as np
import pytest

import ggff
from ggff import (Edge, ElectricalNetwork, GaugeField, VertexSigns,
                  apply_gauge_transform, detect_event, estimate_event_probability,
                  conditional_moment, green, make_cluster_configuration,
                  open_probability, sample_cluster_configuration,
                  sample_cover_gff_batch, sample_cover_gff_and_project,
                  sample_gff, sample_metric_field, sample_twisted_gff,
                  sign_flip_transform, twisted_green, two_point_connectivity,
                  edge_key, subdivide)
from ggff.gff import _FieldEngine, _ParityUnionFind, _balanced, _cover_labels
from ggff.seeds import substream

from conftest import random_network


def cov_tolerance(gdiag, n, k=4.0):
    return k * np.sqrt((np.outer(gdiag, gdiag) + np.outer(gdiag, gdiag)) / n)


def empirical_cov(block):
    return block @ block.T / block.shape[1]


def test_sampler_determinism(pt):
    net, gauge = pt
    assert sample_gff(net, 42).values == sample_gff(net, 42).values
    assert sample_twisted_gff(net, gauge, 42).values == \
        sample_twisted_gff(net, gauge, 42).values
    assert sample_gff(net, 42).values != sample_gff(net, 43).values


def test_gff_sample_boundary_is_zero(pt_net):
    s = sample_gff(pt_net, 0)
    assert s.value("b") == 0.0
    assert set(s.values) == set(pt_net.interior)
    assert all(np.isfinite(v) for v in s.values.values())


def test_gff_empirical_covariance(pt_net):
    n = 100_000
    eng = _FieldEngine(pt_net)
    block = eng.sample_block(substream(1), n)
    g = green(pt_net).entries
    assert np.all(np.abs(empirical_cov(block) - g) <= cov_tolerance(np.diag(g), n))


def test_single_interior_vertex_variance():
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}), (Edge("e", "b", "x", 2.0),))
    eng = _FieldEngine(net)
    block = eng.sample_block(substream(2), 100_000)
    assert np.var(block) == pytest.approx(0.5, abs=4 * 0.5 * math.sqrt(2 / 100_000))


def test_twisted_empirical_moments(pt):
    net, gauge = pt
    n = 100_000
    eng = _FieldEngine(net, gauge)
    block = eng.sample_block(substream(3), n)
    gs = twisted_green(net, gauge).entries
    emp = empirical_cov(block)
    assert np.all(np.abs(emp - gs) <= cov_tolerance(np.diag(gs) + 0.5, n))
    iy, iz = eng.index["y"], eng.index["z"]
    assert emp[iy, iz] < 0  # matches the negative Green entry -2/7
    assert abs(block.mean()) < 4 / math.sqrt(n)  # symmetric in law


def test_trivial_gauge_certificate_conjugation():
    rng = np.random.default_rng(4)
    net, _ = random_network(rng, max_interior=5)
    from conftest import random_trivial_gauge

    gauge = random_trivial_gauge(rng, net)
    ok, cert = ggff.is_trivial(gauge)
    assert ok
    n = 60_000
    eng = _FieldEngine(net, gauge)
    block = eng.sample_block(substream(5), n)
    s = np.array([cert.signs[v] for v in eng.interior])
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
    net, gauge = pt
    cov_sample, plus, minus = sample_cover_gff_and_project(net, gauge, seed=8)
    inv = 1 / math.sqrt(2)
    for x in net.interior:
        a = cov_sample.values[f"({x},1)"]
        b = cov_sample.values[f"({x},2)"]
        assert plus.values[x] == pytest.approx(inv * (a + b), abs=1e-15)
        assert minus.values[x] == pytest.approx(inv * (a - b), abs=1e-15)
    assert plus.kind == "untwisted" and minus.kind == "twisted"


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
    net, gauge = pt
    s = sample_gff(net, 11)
    cfg = sample_cluster_configuration(s, net, 12)
    assert sample_cluster_configuration(s, net, 12).edge_open == cfg.edge_open
    assert cfg.edge_open[edge_key("b", "x")] is False  # boundary edges stay closed
    for k, o in cfg.edge_open.items():
        if o:
            assert cfg.vertex_sign[k[0]] == cfg.vertex_sign[k[1]] != 0
    # components consistent under recomputation
    rebuilt = make_cluster_configuration(net, cfg.vertex_sign, cfg.edge_open)
    assert rebuilt.components == cfg.components


def test_opposite_sign_edges_always_closed(pt_net):
    rng = np.random.default_rng(13)
    for seed in range(30):
        s = sample_gff(pt_net, seed)
        cfg = sample_cluster_configuration(s, pt_net, seed + 1000)
        for k, o in cfg.edge_open.items():
            u, v = k
            if u in cfg.vertex_sign and v in cfg.vertex_sign:
                if cfg.vertex_sign[u] != cfg.vertex_sign[v]:
                    assert not o


def test_empirical_open_rate_matches_formula(pt_net):
    # condition on nearly-fixed endpoint values via rejection would be slow;
    # instead check the aggregate: P(open) = E[p(phi_u, phi_v)] by comparing
    # the Bernoulli frequency with the integrated formula on the same samples
    n = 60_000
    eng = _FieldEngine(pt_net)
    rng = substream(14)
    phi = eng.sample_block(rng, n)
    opened = eng.open_block(phi, rng)
    iu, iv = eng.edge_u, eng.edge_v
    probs = np.where(np.sign(phi[iu]) == np.sign(phi[iv]),
                     -np.expm1(-2 * eng.edge_c[:, None] * np.abs(phi[iu] * phi[iv])), 0.0)
    for row in range(len(eng.int_edges)):
        target = probs[row].mean()
        freq = opened[row].mean()
        se = math.sqrt(max(target * (1 - target), 1e-12) / n)
        assert abs(freq - target) <= 4 * se


def brute_force_balanced(net, gauge, signs, edge_open):
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


def random_configuration(rng, net):
    signs = {v: int(rng.choice([-1, 0, 1], p=[0.45, 0.1, 0.45]))
             for v in net.interior}
    ints = set(net.interior)
    edge_open = {}
    for k in net.sorted_edge_keys:
        u, v = k
        eligible = u in ints and v in ints and signs[u] == signs[v] != 0
        edge_open[k] = bool(eligible and rng.random() < 0.55)
    return make_cluster_configuration(net, signs, edge_open)


def test_detect_event_trivial_cases(pt):
    net, gauge = pt
    empty = make_cluster_configuration(net, {v: 1 for v in net.interior}, {})
    assert detect_event(empty, gauge)
    full = make_cluster_configuration(
        net, {v: 1 for v in net.interior},
        {edge_key("x", "y"): True, edge_key("y", "z"): True, edge_key("z", "x"): True})
    assert not detect_event(full, gauge)  # the triangle has sign product -1


def test_detect_event_methods_agree_with_brute_force():
    rng = np.random.default_rng(15)
    for _ in range(400):
        net, gauge = random_network(rng, max_interior=7)
        cfg = random_configuration(rng, net)
        verdicts = {m: detect_event(cfg, gauge, method=m)
                    for m in ("parity", "cover", "cycles")}
        oracle = brute_force_balanced(net, gauge, cfg.vertex_sign, cfg.edge_open)
        assert verdicts["parity"] == verdicts["cover"] == verdicts["cycles"] == oracle


def test_detect_event_gauge_invariance():
    rng = np.random.default_rng(16)
    for _ in range(60):
        net, gauge = random_network(rng, max_interior=7)
        cfg = random_configuration(rng, net)
        vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1)
                               for v in net.vertices})
        assert detect_event(cfg, gauge) == detect_event(cfg, apply_gauge_transform(vs, gauge))


def test_sign_flip_transform_examples(pt):
    net, gauge = pt
    # only the -1 edge yz open, both endpoints positive: z flips
    cfg = make_cluster_configuration(net, {"x": 1, "y": 1, "z": 1},
                                     {edge_key("y", "z"): True})
    tau = sign_flip_transform(cfg, gauge)
    assert tau == {"x": 1, "y": 1, "z": -1}
    assert sign_flip_transform(cfg, gauge) == tau  # deterministic
    # no -1 edges open: identity
    cfg2 = make_cluster_configuration(net, {"x": 1, "y": 1, "z": -1},
                                      {edge_key("x", "y"): True})
    assert sign_flip_transform(cfg2, gauge) == {"x": 1, "y": 1, "z": 1}


def test_sign_flip_transform_rejects_unbalanced(pt):
    net, gauge = pt
    cfg = make_cluster_configuration(
        net, {v: 1 for v in net.interior},
        {edge_key("x", "y"): True, edge_key("y", "z"): True, edge_key("z", "x"): True})
    with pytest.raises(ValueError, match="not in the topological event"):
        sign_flip_transform(cfg, gauge)


def test_sign_flip_transform_properties():
    rng = np.random.default_rng(17)
    accepted = 0
    while accepted < 60:
        net, gauge = random_network(rng, max_interior=7)
        cfg = random_configuration(rng, net)
        if not detect_event(cfg, gauge):
            continue
        accepted += 1
        tau = sign_flip_transform(cfg, gauge)
        assert set(tau) == set(net.interior)
        assert all(t in (-1, 1) for t in tau.values())
        for (u, v), o in cfg.edge_open.items():
            if o:
                assert tau[u] * gauge.signs[(u, v)] * tau[v] == 1
        for comp in cfg.components:
            assert tau[min(comp)] == 1  # smallest id keeps its original sign
            # a component whose open edges are all +1 is left alone entirely
            if all(gauge.signs[k] == 1 for k, o in cfg.edge_open.items()
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


def test_make_cluster_configuration_enforces_invariants(pt_net):
    with pytest.raises(ValueError, match="boundary"):
        make_cluster_configuration(pt_net, {v: 1 for v in pt_net.interior},
                                   {edge_key("b", "x"): True})
    with pytest.raises(ValueError, match="signs"):
        make_cluster_configuration(pt_net, {"x": 1, "y": -1, "z": 1},
                                   {edge_key("x", "y"): True})


def _union_find_column(m, edges):
    """Event verdict, canonical tau and class root per vertex of one open
    subgraph, from the union-find with signs (every union runs, so the
    classes are complete even outside the event); tau is +1 at the smallest
    vertex of each class."""
    uf = _ParityUnionFind(m)
    ok = all([uf.union(int(u), int(v), int(r)) for u, v, r in edges])
    found = [uf.find(i) for i in range(m)]
    lowest_sign = {}
    for root, sign in found:
        lowest_sign.setdefault(root, sign)
    return ok, [sign * lowest_sign[root] for root, sign in found], [r for r, _ in found]


def test_cover_labels_match_union_find_column_by_column(monkeypatch):
    """Event, tau at every vertex and same-cluster for every pair, on batches
    split over many labelling calls, one sample per call on the larger
    networks; the star has no edge between interior vertices."""
    rng = np.random.default_rng(21)
    star = ElectricalNetwork(("b", "x", "y", "z"), frozenset({"b"}),
                             tuple(Edge(f"e{v}", "b", v, 1.0) for v in "xyz"))
    cases = [(star, GaugeField.all_plus(star))]
    cases += [random_network(rng) for _ in range(30)]
    cases += [random_network(rng, max_interior=60) for _ in range(3)]
    for net, gauge in cases:
        eng = _FieldEngine(net)
        m, rel, plus = len(net.interior), eng.edge_signs(gauge), eng.edge_signs()
        opened = rng.random((len(rel), 40)) < rng.uniform(0.2, 0.9)
        opened[:, 0] = False
        one_call = _cover_labels(m, eng.edge_u, eng.edge_v, rel, opened)
        monkeypatch.setattr(ggff.gff, "_COVER_NODES_PER_CALL", 100)
        lab = _cover_labels(m, eng.edge_u, eng.edge_v, rel, opened)
        same = _cover_labels(m, eng.edge_u, eng.edge_v, plus, opened)
        monkeypatch.undo()
        assert np.array_equal(lab, one_call)
        balanced = _balanced(lab)
        assert balanced[0] and np.all(lab[0, :, 0] == 2 * np.arange(m))
        for s in range(opened.shape[1]):
            cols = np.flatnonzero(opened[:, s])
            ok, tau, roots = _union_find_column(
                m, zip(eng.edge_u[cols], eng.edge_v[cols], rel[cols]))
            assert balanced[s] == ok
            if ok:
                assert list(1 - 2 * (lab[s, :, 0] % 2)) == tau
            for x, y in itertools.product(range(m), repeat=2):
                joined = roots[x] == roots[y]
                assert (lab[s, x, 0] in (lab[s, y, 0], lab[s, y, 1])) == joined
                assert (same[s, x, 0] == same[s, y, 0]) == joined
