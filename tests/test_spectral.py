import dataclasses
import functools
import gc
import inspect
import itertools
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import ggff
from ggff import (Edge, ElectricalNetwork, GaugeField, InvalidNetworkError,
                  LaplacianMatrix, VertexSigns, apply_gauge_transform,
                  green, laplacian, loop_mass, negative_holonomy_mass,
                  restricted_green, subdivide, twisted_green, twisted_laplacian,
                  twisted_loop_mass, det_ratio, cover_green_relations,
                  subspace_determinants, subspace_log_determinants, write_csv)
from ggff import load_network, spectral
from ggff.cli import identity_checks
from ggff.cover import build_double_cover, cover_vertex_id
from ggff.loopsoup import LoopSoupSampler
from ggff.spectral import cover_laplacian, gauge_covariance_residual

from conftest import (cover_maps, factor_orders, polar_annulus, random_network,
                      random_trivial_gauge, with_conductances)

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def assemble_oracle(net, gauge=None):
    """Independent Laplacian assembly straight from degrees and adjacency."""
    order = sorted(set(net.vertices) - net.boundary)
    m = len(order)
    a = np.zeros((m, m))
    for i, v in enumerate(order):
        a[i, i] = sum(c for _, c in net.adjacency[v])
        for w, c in net.adjacency[v]:
            if w in order:
                s = 1 if gauge is None else gauge.sign(v, w)
                a[i, order.index(w)] = -s * c
    return order, a


def det3_cofactor(a):
    """3x3 determinant by cofactor expansion; oracle for the log-det route."""
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def test_pt_laplacians_match_hand_assembly(pt):
    net, gauge = pt
    lap = laplacian(net)
    assert lap.interior_order == ("x", "y", "z")
    assert np.array_equal(lap.entries, np.array([[3., -1, -1], [-1, 2, -1], [-1, -1, 2]]))
    order, oracle = assemble_oracle(net)
    assert tuple(order) == lap.interior_order
    assert np.array_equal(lap.entries, oracle)
    lap_s = twisted_laplacian(net, gauge)
    assert np.array_equal(lap_s.entries, np.array([[3., -1, -1], [-1, 2, 1], [-1, 1, 2]]))
    _, oracle_s = assemble_oracle(net, gauge)
    assert np.array_equal(lap_s.entries, oracle_s)


def test_single_interior_vertex_laplacian():
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}), (Edge("e", "b", "x", 2.0),))
    lap = laplacian(net)
    assert lap.entries.shape == (1, 1) and lap.entries[0, 0] == 2.0


def test_pt_green_values_and_residual(pt):
    net, gauge = pt
    g = green(net)
    assert np.max(np.abs(g.entries - np.array([[3., 3, 3], [3, 5, 4], [3, 4, 5]]) / 3)) < 1e-12
    assert np.max(np.abs(laplacian(net).entries @ g.entries - np.eye(3))) < 1e-12
    gs = twisted_green(net, gauge)
    assert np.max(np.abs(gs.entries - np.array([[3., 1, 1], [1, 5, -2], [1, -2, 5]]) / 7)) < 1e-12
    assert np.max(np.abs(twisted_laplacian(net, gauge).entries @ gs.entries - np.eye(3))) < 1e-12
    assert gs.entries[1, 2] < 0  # twisted entries may go negative
    assert np.array_equal(g.entries, g.entries.T) and np.array_equal(gs.entries, gs.entries.T)


def test_trivial_gauge_green_is_conjugated_green():
    rng = np.random.default_rng(7)
    for _ in range(10):
        net, _ = random_network(rng, max_interior=6)
        gauge = random_trivial_gauge(rng, net)
        ok, cert = ggff.is_trivial(gauge)
        assert ok
        g = green(net)
        gs = twisted_green(net, gauge)
        s = np.array([cert.signs[v] for v in g.interior_order], dtype=float)
        assert np.max(np.abs(gs.entries - s[:, None] * g.entries * s[None, :])) < 1e-10


def test_det_ratio_pt_with_cofactor_oracle(pt):
    net, gauge = pt
    _, m = assemble_oracle(net)
    _, ms = assemble_oracle(net, gauge)
    assert det3_cofactor(m) == pytest.approx(3.0, abs=1e-12)
    assert det3_cofactor(ms) == pytest.approx(7.0, abs=1e-12)
    assert det_ratio(net, gauge) == pytest.approx(math.sqrt(3 / 7), abs=1e-12)


def test_det_ratio_trivial_gauge_is_one(pt_net):
    assert det_ratio(pt_net, GaugeField.all_plus(pt_net)) == pytest.approx(1.0, abs=1e-12)


def test_det_ratio_one_without_interior_minus_cycle(pt_net):
    # -1 only on the pendant (bridge) edge: the sole cycle keeps holonomy +1
    gauge = GaugeField.with_minus_edges(pt_net, [("b", "x")])
    assert det_ratio(pt_net, gauge) == pytest.approx(1.0, abs=1e-12)
    # oracle: the triangle is the only cycle and its sign product stays +1
    assert gauge.sign("x", "y") * gauge.sign("y", "z") * gauge.sign("z", "x") == 1


def test_loop_masses_pt(pt):
    net, gauge = pt
    assert loop_mass(net) == pytest.approx(math.log(4), abs=1e-12)
    assert twisted_loop_mass(net, gauge) == pytest.approx(math.log(12 / 7), abs=1e-12)
    assert negative_holonomy_mass(net, gauge) == pytest.approx(0.5 * math.log(7 / 3), abs=1e-12)
    assert math.exp(-negative_holonomy_mass(net, gauge)) == pytest.approx(
        det_ratio(net, gauge), abs=1e-12)


def test_loop_mass_single_interior_vertex():
    net = ElectricalNetwork(("b", "x"), frozenset({"b"}), (Edge("e", "b", "x", 2.0),))
    assert loop_mass(net) == pytest.approx(0.0, abs=1e-12)  # G(x,x) W(x) = 1


def test_negative_mass_zero_for_trivial(pt_net):
    assert negative_holonomy_mass(pt_net, GaugeField.all_plus(pt_net)) == \
        pytest.approx(0.0, abs=1e-12)


def test_cover_green_relations_pt(pt):
    net, gauge = pt
    rep = cover_green_relations(net, gauge)
    assert rep.residual_untwisted < 1e-10
    assert rep.residual_twisted < 1e-10
    assert rep.residual_deck < 1e-10


def cover_green_relations_by_pairs(net, gauge):
    """The pair-by-pair residuals of the cover Green relations; reference for
    the index-array version."""
    cov = build_double_cover(net, gauge)
    g, gs, gdb = green(net), twisted_green(net, gauge), ggff.cover_green(cov)
    idx = {v: i for i, v in enumerate(gdb.interior_order)}
    _, swap, _ = cover_maps(net)
    m = len(g.interior_order)
    g11, g12 = np.zeros((m, m)), np.zeros((m, m))
    for i, x in enumerate(g.interior_order):
        for j, y in enumerate(g.interior_order):
            g11[i, j] = gdb.entries[idx[cover_vertex_id(x, 1)], idx[cover_vertex_id(y, 1)]]
            g12[i, j] = gdb.entries[idx[cover_vertex_id(x, 1)], idx[cover_vertex_id(y, 2)]]
    deck = np.zeros_like(gdb.entries)
    for a in gdb.interior_order:
        for b in gdb.interior_order:
            deck[idx[a], idx[b]] = gdb.entries[idx[swap[a]], idx[swap[b]]]
    return (float(np.max(np.abs(g.entries - (g11 + g12)))),
            float(np.max(np.abs(gs.entries - (g11 - g12)))),
            float(np.max(np.abs(deck - gdb.entries))))


def test_cover_green_relations_equal_pairwise_reference(pt):
    rng = np.random.default_rng(31)
    for net, gauge in [pt] + [random_network(rng, max_interior=8) for _ in range(8)]:
        rep = cover_green_relations(net, gauge)
        assert (rep.residual_untwisted, rep.residual_twisted,
                rep.residual_deck) == cover_green_relations_by_pairs(net, gauge)


def test_cover_off_sheet_green_vanishes_for_all_plus(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    cov = build_double_cover(pt_net, gauge)
    gdb = ggff.cover_green(cov)
    idx = {v: i for i, v in enumerate(gdb.interior_order)}
    for x in pt_net.interior:
        for y in pt_net.interior:
            assert abs(gdb.entries[idx[cover_vertex_id(x, 1)], idx[cover_vertex_id(y, 2)]]) < 1e-12


def test_subspace_determinants_pt(pt):
    net, gauge = pt
    dp, dm = subspace_determinants(net, gauge)
    assert dp == pytest.approx(3.0, rel=1e-10)
    assert dm == pytest.approx(7.0, rel=1e-10)
    det_db = math.exp(cover_laplacian(build_double_cover(net, gauge)).log_det())
    assert dp * dm == pytest.approx(det_db, rel=1e-10)


def test_subspace_determinants_trivial(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    dp, dm = subspace_determinants(pt_net, gauge)
    det_m = math.exp(laplacian(pt_net).log_det())
    assert dp == pytest.approx(det_m, rel=1e-10)
    assert dm == pytest.approx(det_m, rel=1e-10)


def test_gauge_covariance_and_invariants_random():
    rng = np.random.default_rng(13)
    for _ in range(12):
        net, gauge = random_network(rng, max_interior=7)
        vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1)
                               for v in net.vertices})
        assert gauge_covariance_residual(net, gauge, vs) < 1e-10
        transformed = apply_gauge_transform(vs, gauge)
        assert abs(det_ratio(net, gauge) - det_ratio(net, transformed)) < 1e-10
        assert abs(negative_holonomy_mass(net, gauge)
                   - negative_holonomy_mass(net, transformed)) < 1e-10
        assert abs(twisted_loop_mass(net, gauge)
                   - twisted_loop_mass(net, transformed)) < 1e-10


def test_det_ratio_bounds_and_diagonal_positivity():
    rng = np.random.default_rng(19)
    for _ in range(15):
        net, gauge = random_network(rng, max_interior=8)
        r = det_ratio(net, gauge)
        assert 0.0 < r <= 1.0 + 1e-12
        gs = twisted_green(net, gauge)
        assert np.all(np.diag(gs.entries) > 0)


def test_subdivision_green_consistency(pt):
    net, gauge = pt
    g = green(net)
    gs = twisted_green(net, gauge)
    for n in (3, 5):
        sub, gauge_n = subdivide(net, gauge, n)
        gn = green(sub.network)
        gns = twisted_green(sub.network, gauge_n)
        sel = [gn.interior_order.index(v) for v in g.interior_order]
        assert np.max(np.abs(gn.entries[np.ix_(sel, sel)] - g.entries)) < 1e-8
        assert np.max(np.abs(gns.entries[np.ix_(sel, sel)] - gs.entries)) < 1e-8


def test_csv_dump(tmp_path, pt):
    net, gauge = pt
    path = tmp_path / "g.csv"
    write_csv(twisted_green(net, gauge), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == ["vertex", "x", "y", "z"]
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(3 / 7, abs=1e-12)


def test_restricted_green_equals_full_block(pt):
    rng = np.random.default_rng(23)
    cases = [pt] + [random_network(rng, max_interior=9) for _ in range(6)]
    for net, gauge in cases:
        for n in (1, 3):
            sub, gauge_n = subdivide(net, gauge, n)
            order = list(sub.network.interior)
            sel = [order.index(v) for v in net.interior]
            full = green(sub.network).entries[np.ix_(sel, sel)]
            full_s = twisted_green(sub.network, gauge_n).entries[np.ix_(sel, sel)]
            block = restricted_green(sub.network, net.interior)
            block_s = restricted_green(sub.network, net.interior, gauge_n)
            assert block.interior_order == net.interior
            assert block.kind == "untwisted" and block_s.kind == "twisted"
            assert np.max(np.abs(block.entries - full)) < 1e-12
            assert np.max(np.abs(block_s.entries - full_s)) < 1e-12


def test_det_ratio_by_the_determinant_lemma(pt):
    """L_sigma - L is 2C_e on the (x, y) and (y, x) entries of each -1
    interior edge, so det_ratio^-2 = det L_sigma / det L = det(I + K G[S, S]),
    S the -1 edges' interior ends and G[S, S] from L's factor alone, on PT,
    the 6 x 8 and 24 x 12 annuli and 20 random networks."""
    rng = np.random.default_rng(37)
    cases = [pt, polar_annulus(6, 8), polar_annulus(24, 12)]
    cases += [random_network(rng) for _ in range(20)]
    for net, gauge in cases:
        _, u, v, c = net.interior_edges
        minus = gauge.interior_signs == -1
        ends = np.unique(np.concatenate((u[minus], v[minus])))
        at = np.searchsorted(ends, (u[minus], v[minus]))
        k = np.zeros((len(ends), len(ends)))
        k[at[0], at[1]] = k[at[1], at[0]] = 2 * c[minus]
        g = restricted_green(net, [net.interior[j] for j in ends.tolist()]).entries
        lemma = np.linalg.det(np.eye(len(ends)) + k @ g)
        assert abs(lemma * det_ratio(net, gauge) ** 2 - 1) < 1e-12


def forest_determinants(net, gauge) -> tuple[float, float]:
    """(det L, det L_sigma) by Kenyon's forest expansion: the sum, over the
    m-edge subsets F of all edges (m interior vertices) whose every component
    is a tree with exactly one boundary vertex or a boundary-free unicycle,
    of prod_{e in F} C_e times 4 per cycle of holonomy -1 and 0 per cycle of
    holonomy +1.  With sigma = +1 every unicycle weighs 0, and this is
    Kirchhoff's count of rooted spanning forests.  A union-find keeps each
    vertex's holonomy to its root, and each root the boundary vertices and
    cycles of its component, which must come to exactly one."""
    idx = {v: i for i, v in enumerate(net.vertices)}
    keys = net.sorted_edge_keys
    ends = [(idx[a], idx[b]) for a, b in keys]
    cond = [net.edge_map[k].conductance for k in keys]
    on_boundary = [int(v in net.boundary) for v in net.vertices]

    def find(parent, parity, x):
        p = 0
        while parent[x] != x:
            p, x = p ^ parity[x], parent[x]
        return x, p

    def expansion(flips):
        total = 0.0
        for subset in itertools.combinations(range(len(keys)), len(net.interior)):
            parent, parity = list(range(len(idx))), [0] * len(idx)
            held, weight = on_boundary[:], 1.0
            for i in subset:
                (ru, pu), (rv, pv) = (find(parent, parity, x) for x in ends[i])
                weight *= cond[i]
                if ru == rv:  # a cycle, of holonomy -1 when the parities differ
                    weight *= 4.0 if pu ^ pv ^ flips[i] else 0.0
                    held[ru] += 1
                else:
                    parent[rv], parity[rv] = ru, pu ^ pv ^ flips[i]
                    held[ru] += held[rv]
            if all(held[r] == 1 for r in range(len(idx)) if parent[r] == r):
                total += weight
        return total

    return expansion([0] * len(keys)), expansion([int(gauge.signs[k] == -1) for k in keys])


def test_determinants_by_the_forest_expansion(pt):
    """det L and det L_sigma by Kenyon's forest expansion (R. Kenyon,
    "Spanning forests and the vector bundle Laplacian", Ann. Probab. 39,
    2011), which forms no matrix: exactly 3 and 7 on PT, and within 1e-12
    relative of the factor's log determinants on 8 random networks with
    P(T) < 0.999 and at most 120,000 edge subsets to sum."""
    assert forest_determinants(*pt) == (3.0, 7.0)
    rng, cases = np.random.default_rng(53), []
    while len(cases) < 8:
        net, gauge = random_network(rng, max_interior=7)
        if (math.comb(len(net.edges), len(net.interior)) <= 120_000
                and det_ratio(net, gauge) < 0.999):
            cases.append((net, gauge))
    for net, gauge in cases:
        det_l, det_ls = forest_determinants(net, gauge)
        for det, lap in ((det_l, laplacian(net)), (det_ls, twisted_laplacian(net, gauge))):
            assert abs(det / math.exp(lap.log_det()) - 1) < 1e-12


def test_restricted_green_in_any_vertex_order(pt):
    net, gauge = pt
    block = restricted_green(net, ["z", "x"], gauge)
    assert block.value("z", "x") == pytest.approx(1 / 7, abs=1e-12)
    assert block.value("z", "z") == pytest.approx(5 / 7, abs=1e-12)


def test_one_cholesky_factor_per_laplacian(pt, monkeypatch):
    net, gauge = pt
    calls = factor_orders(monkeypatch, "cho_factor")
    banded = factor_orders(monkeypatch, "cholesky_banded")
    lap = twisted_laplacian(net, gauge)  # the positive-definiteness check factors it
    assert calls == [3]
    log_det, chol = lap.log_det(), lap.cholesky()
    g = spectral.green_of(lap)
    assert calls == [3]
    assert log_det == pytest.approx(math.log(7), abs=1e-12)
    assert np.array_equal(chol, np.tril(chol))  # its rows in reversed order, the dense route's
    assert np.max(np.abs(chol @ chol.T - lap.entries[::-1, ::-1])) < 1e-12
    assert np.array_equal(g.entries, twisted_green(net, gauge).entries)
    assert twisted_laplacian(net, gauge) is lap and calls == [3]  # cached on the gauge
    calls.clear()
    green(net)
    restricted_green(net, ["y"])
    restricted_green(net, ["y"], gauge)
    assert calls == [3]  # L once, cached on the network; L_sigma read from the gauge
    # one identity suite: L, L_sigma, L_{vs.sigma}, the cover Laplacian, its
    # two sheet-symmetric blocks and the four subdivided Laplacians, each
    # factored once; a second suite on the same gauge factors only the two
    # blocks, reading the rest from the network, the gauge and what the gauge
    # caches; every subdivision of these two stays on the dense route
    for name in ("pt", "annulus-6x8"):
        network, sigma = load_network(NETWORKS / f"{name}.json")
        for factors in (10, 2):
            calls.clear()
            identity_checks(network, sigma)
            assert len(calls) == factors and banded == []
            assert max(calls) <= spectral.DENSE_MAX_ORDER


FACTORED_OPERATIONS = {
    # operation: (cho_factor calls, Green-matrix Cholesky calls)
    "event": (2, 0), "moment": (2, 0), "connectivity": (1, 0),
    "soup_moments": (2, 0), "kl_isomorphism_check": (2, 0),
    "sample_cover_gff_batch": (1, 0)}


def factored_operations(net, gauge) -> dict:
    """Each call of FACTORED_OPERATIONS, on net and gauge."""
    x, y = "r03s07", "r03s00"
    return {
        "event": lambda: ggff.estimate_event_probability(net, gauge, 64, 1),
        "moment": lambda: ggff.conditional_moment(net, gauge, (x, y), 64, 1),
        "connectivity": lambda: ggff.two_point_connectivity(net, (x, y), 64, 1),
        "soup_moments": lambda: ggff.soup_moments(net, 0.5, 4, 1, gauge=gauge),
        "kl_isomorphism_check": lambda: ggff.kl_isomorphism_check(net, gauge, 4, 1),
        "sample_cover_gff_batch": lambda: ggff.sample_cover_gff_batch(net, gauge, 1, 4),
    }


def factored_operation(operation: str):
    """The call of FACTORED_OPERATIONS named operation, on a freshly loaded
    6 x 8 annulus, so that it reads no factor an earlier call cached."""
    return factored_operations(*load_network(NETWORKS / "annulus-6x8.json"))[operation]


def result_bytes(result) -> list[bytes]:
    """Every value of an operation's report, or of its tuple of arrays, as bytes."""
    values = vars(result).values() if dataclasses.is_dataclass(result) else result
    return [np.asarray(v).tobytes() for v in values]


@pytest.mark.parametrize("operation", sorted(FACTORED_OPERATIONS))
def test_each_operation_factors_each_operator_once(monkeypatch, operation):
    """On the 6 x 8 annulus: L, L_sigma and the cover Laplacian are factored
    once per operation, in the one order of their route; fields, soups and
    targets read those factors, and no Green matrix is factored."""
    run = factored_operation(operation)
    orders = factor_orders(monkeypatch, "cho_factor")
    green_orders = []
    real = np.linalg.cholesky

    def recording(a, *args, **kwargs):
        green_orders.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    run()
    assert (len(orders), len(green_orders)) == FACTORED_OPERATIONS[operation]
    m = 96 if operation == "sample_cover_gff_batch" else 48
    assert set(orders + green_orders) == {m}


def test_operations_on_one_network_share_its_factors(monkeypatch):
    """Run in sequence on one loaded 6 x 8 annulus, the six operations factor
    L and L_sigma once each, where they are cached for the fields, soups and
    targets of every later call, plus the cover Laplacian: 3 factorizations
    where fresh networks make 10.  Run again, they factor nothing more.
    Every result keeps the bits of the same call on a fresh network."""
    fresh = {name: result_bytes(factored_operation(name)()) for name in FACTORED_OPERATIONS}
    calls = factor_orders(monkeypatch, "cho_factor")
    net, gauge = load_network(NETWORKS / "annulus-6x8.json")
    for _ in range(2):
        for name, run in factored_operations(net, gauge).items():
            assert result_bytes(run()) == fresh[name], name
    assert calls == [48, 48, 96]


def test_cover_fields_on_one_gauge_share_its_cover(monkeypatch):
    """Two cover-field calls on one loaded 6 x 8 annulus build its double
    cover once, cached on the gauge, so the order-96 cover Laplacian is
    factored once; each call keeps the bits of the same call on fresh objects,
    and a network the gauge does not belong to is still refused."""
    def runs(net, gauge):
        return [ggff.sample_cover_gff_batch(net, gauge, 1, 4),
                ggff.sample_cover_gff_batch(net, gauge, 2, 3)]

    fresh = [result_bytes(runs(*load_network(NETWORKS / "annulus-6x8.json"))[k]) for k in (0, 1)]
    calls = factor_orders(monkeypatch, "cho_factor")
    net, gauge = load_network(NETWORKS / "annulus-6x8.json")
    assert [result_bytes(r) for r in runs(net, gauge)] == fresh
    assert calls == [96]
    with pytest.raises(ValueError, match="different network"):  # the cache keeps the check
        ggff.sample_cover_gff_batch(polar_annulus(5, 8)[0], gauge, 1, 4)


def test_cached_arrays_are_read_only(monkeypatch):
    """The factors, inverse factors and Green diagonals cached on a network
    and its gauge, and the soup elimination's arrays and table rows, on the
    dense and on the banded route."""
    for threshold in (spectral.DENSE_MAX_ORDER, 0):
        monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", threshold)
        net, gauge = load_network(NETWORKS / "annulus-6x8.json")
        ggff.soup_moments(net, 0.5, 4, 1, gauge=gauge)
        ggff.kl_isomorphism_check(net, gauge, 4, 1)
        sampler = LoopSoupSampler(net, 0.5)
        arrays = [sampler.w, sampler.mean_holding, sampler._jump_source,
                  sampler.return_prob, sampler.level_mass]
        for lap in (spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)):
            assert lap.factor[2] == (threshold == 0)
            arrays += [*lap.factor[:2], lap.inverse_diagonal]
            arrays += [] if lap.factor[2] else [lap.inverse_factor]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert sampler._rows is None or all(row.readonly for row in sampler._rows)


def test_a_network_frees_its_caches_with_itself():
    """No registry outlives a network: once it and its gauge are deleted,
    with their factors, elimination and Green diagonals cached, both are
    collected."""
    net, gauge = load_network(NETWORKS / "annulus-6x8.json")
    for run in factored_operations(net, gauge).values():
        run()
    refs = [weakref.ref(net), weakref.ref(gauge), weakref.ref(spectral.laplacian(net))]
    del net, gauge, run
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


@pytest.mark.parametrize("name", ["pt", "annulus-6x8"])
def test_equal_operators_give_exact_targets(name):
    """With the all-plus gauge L_sigma = L, so the event target is exactly 1.0
    and the holonomy -1 loop count target exactly 0.0: each pairs log
    determinants of L and L_sigma factored in one order, which round alike."""
    net, _ = load_network(NETWORKS / f"{name}.json")
    gauge = GaugeField.all_plus(net)
    assert ggff.estimate_event_probability(net, gauge, 64, 1).target == 1.0
    assert ggff.soup_moments(net, 0.5, 4, 1, gauge=gauge).negative_count_target == 0.0


@pytest.mark.parametrize("name, banded", [("pt", False), ("annulus-24x12", False),
                                          ("annulus-49x24", True)])
def test_stacked_color_equals_each_column_alone(name, banded):
    """color on a (k, m, 1) stack gives, item by item, the bits of color on
    that item's column alone, for L and L_sigma: the
    same product on the dense route, the same solve on the banded one.  The
    stack is a strided view, as the soup check passes it."""
    net, gauge = (load_network(NETWORKS / "pt.json") if name == "pt"
                  else polar_annulus(*map(int, name.split("-")[1].split("x"))))
    rng = np.random.default_rng(3)
    for lap in (spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)):
        assert lap.factor[2] is banded
        lap.inverse_factor
        m = len(lap.interior_order)
        stack = rng.standard_normal((5, 2, m, 1))[:, 1]
        coloured = lap.color(stack)
        assert coloured.shape == stack.shape
        for item, column in zip(coloured, stack):
            assert item.tobytes() == lap.color(column.copy()).tobytes()


def test_banded_color_equals_the_one_shot_solve():
    """Banded color, which fills and reads its solve's Fortran-order array by
    row blocks, gives the bits of the one-shot form, which gathered the whole
    draw into the factor's order, let dtbtrs copy it and gathered the whole
    result back: on polar_annulus(49, 24) for L and L_sigma, for an (m, n)
    draw whose row blocks do not divide m, for the strided (k, m, 1) stack
    the soup check passes and for a (k, m, n) stack."""
    import scipy.linalg as sla

    def one_shot(lap, z):
        c, pos, _ = lap.factor
        if z.ndim == 3:
            return np.stack([one_shot(lap, item) for item in z])
        z = np.take(z, pos, axis=-2)
        return np.take(sla.lapack.dtbtrs(c, z, uplo="L", trans="T")[0], pos, axis=-2)

    net, gauge = polar_annulus(49, 24)
    rng = np.random.default_rng(5)
    for lap in (spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)):
        assert lap.factor[2]
        m, n = len(lap.interior_order), 300
        assert m % (spectral._COLOR_BLOCK // n)
        for z in (rng.standard_normal((m, n)), rng.standard_normal((4, 2, m, 1))[:, 1],
                  rng.standard_normal((3, m, n))):
            got = lap.color(z)
            assert got.shape == z.shape
            assert got.tobytes() == one_shot(lap, z).tobytes()


def one_shot_inverse(lap, sel=None):
    """The sel x sel block of lap's inverse as the banded route formed it in
    one solve: Y = C^-1 E over the whole band for every selected unit column
    at once, then Y^T Y."""
    import scipy.linalg as sla

    c, pos, _ = lap.factor
    rows = pos if sel is None else pos[sel]
    rhs = np.zeros((len(pos), len(rows)), order="F")
    rhs[rows, np.arange(len(rows))] = 1.0
    y, _ = sla.lapack.dtbtrs(c, rhs, uplo="L", overwrite_b=True)
    return y.T @ y


@pytest.mark.parametrize("rings, sites, n", [(49, 24, 1), (24, 12, 3)])
def test_banded_inverse_equals_the_one_shot_solve(rings, sites, n):
    """Banded inverse, which solves each block of columns from its first unit
    row on only, gives the one-shot solve's bits for a scattered selection,
    for the full inverse and for inverse_diagonal, of L and L_sigma: on
    polar_annulus(49, 24) and on the 24 x 12 annulus subdivided at N = 3, as
    the identity suite subdivides it."""
    net, gauge = polar_annulus(rings, sites)
    if n > 1:
        sub, gauge = subdivide(net, gauge, n)
        net = sub.network
    rng = np.random.default_rng(7)
    for lap in (laplacian(net), twisted_laplacian(net, gauge)):
        m = len(lap.interior_order)
        assert lap.factor[2]
        sel = rng.permutation(m)[:300]
        assert lap.inverse(sel).tobytes() == one_shot_inverse(lap, sel).tobytes()
        assert lap.inverse().tobytes() == one_shot_inverse(lap).tobytes()
        inv, b = np.argsort(lap.factor[1]), spectral._DIAGONAL_BLOCK
        diagonal = np.concatenate([np.diag(one_shot_inverse(lap, inv[j:j + b]))
                                   for j in range(0, m, b)])[lap.factor[1]]
        assert lap.inverse_diagonal.tobytes() == diagonal.tobytes()


def test_dense_inverse_equals_the_solve_against_the_identity():
    """The dense full inverse, from dpotri on the cached factor, is the
    cho_solve of the identity to 1e-13 relative, and exactly symmetric: for
    L and L_sigma of PT, the 6 x 8 and 24 x 12 annuli and 20 random networks
    with conductances from 0.5 to 2."""
    import scipy.linalg as sla

    rng = np.random.default_rng(43)
    cases = [load_network(NETWORKS / "pt.json"), load_network(NETWORKS / "annulus-6x8.json"),
             polar_annulus(24, 12)] + [random_network(rng) for _ in range(20)]
    for net, gauge in cases:
        for lap in (laplacian(net), twisted_laplacian(net, gauge)):
            c, pos, banded = lap.factor
            assert not banded
            oracle = sla.cho_solve((c, True), np.eye(len(pos)))[np.ix_(pos, pos)]
            got = lap.inverse()
            assert np.array_equal(got, got.T)
            assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_dense_green_matrices_are_taken_as_they_are(monkeypatch):
    """On both routes green_of keeps the inverse as it is: the entries' bits
    are the inverse's, which equal their transpose exactly and so are those
    of 0.5 (G + G^T): for L, L_sigma and the cover's L of PT and the 6 x 8
    and 24 x 12 annuli, dense as they are and banded with DENSE_MAX_ORDER 0
    (there numpy forms Y^T Y as one symmetric rank-k update)."""
    for limit in (spectral.DENSE_MAX_ORDER, 0):
        monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", limit)
        cases = [load_network(NETWORKS / "pt.json"),
                 load_network(NETWORKS / "annulus-6x8.json"), polar_annulus(24, 12)]
        for net, gauge in cases:
            for lap in (laplacian(net), twisted_laplacian(net, gauge),
                        cover_laplacian(build_double_cover(net, gauge))):
                g, inverse = spectral.green_of(lap), lap.inverse()
                assert lap.factor[2] == (limit == 0)
                assert g.entries.tobytes() == inverse.tobytes()
                assert np.array_equal(g.entries, g.entries.T)
                assert g.entries.tobytes() == (0.5 * (inverse + inverse.T)).tobytes()


def dense_sheet_blocks(cov, lap) -> tuple[float, float]:
    """subspace_log_determinants_of as it formed the two sheet-symmetric
    blocks from the cover Laplacian's dense 2m x 2m array."""
    one, two = cov.interior_lifts
    a = lap.entries
    same = a[np.ix_(one, one)] + a[np.ix_(two, two)]
    cross = a[np.ix_(one, two)] + a[np.ix_(two, one)]
    return tuple(LaplacianMatrix(cov.base.interior, *np.nonzero(b), b[b != 0], "cover").log_det()
                 for b in (0.5 * (same + cross), 0.5 * (same - cross)))


def test_sheet_blocks_equal_the_dense_construction():
    """On 30 random networks with conductances from 0.5 to 2 and mixed signs,
    both sheet-symmetric log determinants are those of the blocks cut from
    the cover Laplacian's dense array, bit for bit."""
    rng = np.random.default_rng(47)
    for _ in range(30):
        net, gauge = random_network(rng, max_interior=20)
        cov = build_double_cover(net, gauge)
        lap = cover_laplacian(cov)
        assert spectral.subspace_log_determinants_of(cov, lap) == dense_sheet_blocks(cov, lap)


def test_sheet_blocks_form_no_cover_sized_square_array():
    """On polar_annulus(49, 24), whose cover has 2,352 interior vertices, the
    sheet-symmetric blocks peak below a quarter of one (2m)^2 float64 array
    (about 11 MB), and give the dense construction's log determinants."""
    import tracemalloc

    net, gauge = polar_annulus(49, 24)
    cov = build_double_cover(net, gauge)
    lap = cover_laplacian(cov)
    cov.interior_lifts
    m2 = len(lap.interior_order)
    assert m2 == 2352
    tracemalloc.start()
    try:
        got = spectral.subspace_log_determinants_of(cov, lap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m2 * m2 * 8 / 4
    assert got == dense_sheet_blocks(cov, lap)


# a factorization or triangular inversion, by its name in numpy or scipy
FACTORIZATION = re.compile(
    r"\.(?:cholesky|cho_factor|cholesky_banded|dtrtri|inv)\b"
    r"|\b(?:cholesky|cho_factor|cholesky_banded|dtrtri)\s*\(")


def test_only_spectral_factors_a_matrix():
    """Every factorization goes through ggff.spectral, where the benchmark
    counts Cholesky calls; no other module calls one."""
    found = {path.name: [line for line in path.read_text().splitlines()
                         if FACTORIZATION.search(line)]
             for path in Path(ggff.__file__).parent.glob("*.py")}
    assert found.pop("spectral.py")  # the pattern finds spectral's own calls
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_only_the_accessors_cover_laplacian_and_blocks_build_a_laplacian(pt):
    """Closed forms, estimators, soups and cover fields read L and L_sigma
    from laplacian and twisted_laplacian, which take no order and cache the
    operators on the network and the gauge.  cover_laplacian reads the
    cover's L from laplacian.  Besides the two accessors, only the cover's
    sheet-symmetric blocks build a LaplacianMatrix, no module but
    ggff.spectral builds one, and no name in the package speaks of a second,
    descending order."""
    assert list(inspect.signature(laplacian).parameters) == ["network"]
    assert list(inspect.signature(twisted_laplacian).parameters) == ["network", "gauge"]
    cov = build_double_cover(*pt)
    assert cover_laplacian(cov) is laplacian(cov.cover_network)
    builds = re.compile(r"(?<!def )\b(?:_assemble|LaplacianMatrix)\(")
    builders = {name for name, fn in inspect.getmembers(spectral, inspect.isfunction)
                if fn.__module__ == spectral.__name__ and builds.search(inspect.getsource(fn))}
    assert builders == {"_assemble", "laplacian", "twisted_laplacian",
                        "subspace_log_determinants_of"}
    found = [f"{path.name}: {line.strip()}"
             for path in Path(ggff.__file__).parent.glob("*.py")
             for line in path.read_text().splitlines()
             if "descending" in line.lower() or path.name != "spectral.py" and builds.search(line)]
    assert found == []


def test_samplers_build_the_inverse_factor_before_their_workers(monkeypatch):
    """Worker threads share L and L_sigma and only read them: on the dense
    route each sampler builds the inverse_factor its workers read before it
    starts them.  Closed forms never build one: an identity suite, with its
    fresh L_{vs.sigma}, cover Laplacian and subdivisions, builds no
    inverse_factor and calls no dtrtri (its full Green matrices come from
    dpotri)."""
    net, gauge = load_network(NETWORKS / "annulus-6x8.json")
    inversions, built = [], []
    real = spectral.sla.lapack.dtrtri
    monkeypatch.setattr(spectral.sla.lapack, "dtrtri",
                        lambda c, *args, **kw: inversions.append(len(c)) or real(c, *args, **kw))

    def starting(*args, run):
        built.append([name for name, owner in (("L", net), ("L_sigma", gauge))
                      if "inverse_factor" in vars(vars(owner)["_laplacian"])])
        return run(*args)

    for module in (ggff.gff, ggff.loopsoup):
        monkeypatch.setattr(module, "run_batches", functools.partial(starting, run=module.run_batches))
    identity_checks(net, gauge)
    assert inversions == [] and built == []
    ggff.estimate_event_probability(net, gauge, 64, 1, threads=2, batch_size=32)
    ggff.kl_isomorphism_check(net, gauge, 8, 1, threads=2, batch_size=4)
    assert built == [["L"], ["L", "L_sigma"]] and inversions == [48, 48]


# a vertex's degree, or a cover vertex's id, formed outside the module that caches it
RECOMPUTED = {"network.py": re.compile(r"\bweighted_degree\("),
              "cover.py": re.compile(r"\bcover_vertex_id\(|\.lift\(")}


def test_degrees_and_lifts_are_read_from_their_objects():
    """W(x) is formed only in ggff.network, as network.interior_degrees, and
    the cover's vertex ids only in ggff.cover, whose interior_lifts every
    other module reads."""
    found = [f"{path.name}: {line.strip()}"
             for path in Path(ggff.__file__).parent.glob("*.py")
             for line in path.read_text().splitlines()
             for home, pattern in RECOMPUTED.items()
             if path.name != home and pattern.search(line)]
    assert found == []


# an index or an order reversed by hand
REVERSAL = re.compile(r"\[::-1\]|\bm - 1 -")


def test_only_spectral_chooses_an_elimination_order(pt, monkeypatch):
    """Every Laplacian is held and addressed in its network's sorted interior
    order, and only ggff.spectral reverses one: no other module reverses an
    order or an index, and every operator that the factored operations and
    the identity suite assemble has its network's interior as its order."""
    found = {path.name: [line for line in path.read_text().splitlines()
                         if REVERSAL.search(line)]
             for path in Path(ggff.__file__).parent.glob("*.py") if path.name != "spectral.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    sorted_order = []
    real = spectral._assemble

    def recording(network, *args, **kwargs):
        lap = real(network, *args, **kwargs)
        sorted_order.append(lap.interior_order == network.interior)
        return lap

    monkeypatch.setattr(spectral, "_assemble", recording)
    for operation in sorted(FACTORED_OPERATIONS):
        factored_operation(operation)()
    for network, sigma in (pt, load_network(NETWORKS / "annulus-6x8.json")):
        identity_checks(network, sigma)
    # each operation's operators, and per suite L, L_sigma, L_{vs.sigma}, the
    # cover Laplacian and the four subdivided Laplacians
    assert len(sorted_order) == sum(n for n, _ in FACTORED_OPERATIONS.values()) + 2 * 8
    assert all(sorted_order)


def _both_routes(monkeypatch, net, gauge, n: int) -> tuple[list, int]:
    """restricted_green on net subdivided n times, without and with the gauge,
    by the banded route, then by the dense route, and the subdivision's
    order.  Each route subdivides a copy of gauge of its own, since a gauge
    caches its subdivisions and they keep the factors their first reader made."""
    routes = []
    for threshold in (0, 10 ** 9):
        sub, gauge_n = subdivide(net, GaugeField(net, dict(gauge.signs)), n)
        with monkeypatch.context() as mp:
            mp.setattr(spectral, "DENSE_MAX_ORDER", threshold)
            routes.append([restricted_green(sub.network, net.interior, sigma)
                           for sigma in (None, gauge_n)])
            assert laplacian(sub.network).factor[2] is (threshold == 0)
    return list(zip(*routes)), len(sub.network.interior)


def _routes_agree(monkeypatch, net, gauge, n: int) -> int:
    """Both routes on net subdivided n times agree to 1e-12 relative, with and
    without the gauge; returns the subdivision's order."""
    routes, order = _both_routes(monkeypatch, net, gauge, n)
    for banded, dense in routes:
        assert banded.interior_order == dense.interior_order == net.interior
        assert banded.kind == dense.kind
        assert np.max(np.abs(banded.entries - dense.entries)) <= 1e-12 * np.max(np.abs(dense.entries))
    return order


@pytest.mark.parametrize("n", [3, 5])
def test_banded_route_equals_dense_on_the_annulus(monkeypatch, n):
    """The 24 x 12 polar annulus subdivided as in the identity suite: orders
    1,464 and 2,640, both on the banded route by default."""
    assert _routes_agree(monkeypatch, *polar_annulus(24, 12), n) > spectral.DENSE_MAX_ORDER


def test_banded_route_equals_dense_on_random_networks(monkeypatch):
    """Random networks with conductances from 1e-3 to 1e3, subdivided at N = 3
    and 5 as in the identity suite; their orders fall on both sides of
    DENSE_MAX_ORDER."""
    rng = np.random.default_rng(41)
    orders = []
    for _ in range(6):
        net, gauge = random_network(rng, max_interior=45)
        net = with_conductances(net, 10.0 ** rng.uniform(-3, 3, len(net.edges)))
        gauge = GaugeField(net, dict(gauge.signs))
        orders += [_routes_agree(monkeypatch, net, gauge, n) for n in (3, 5)]
    assert min(orders) <= spectral.DENSE_MAX_ORDER < max(orders)


def fourier_log_dets(rings: int, sites: int) -> tuple[float, float]:
    """log det L and log det L_sigma of polar_annulus(rings, sites), from
    Fourier modes.

    Both Laplacians separate into radial modes mu_k = 2 - 2 cos(pi k / (R + 1)),
    k = 1..R, and angular ones: nu_n = 2 - 2 cos(2 pi n / S) for L, and
    nu'_n = 2 - 2 cos(2 pi (n + 1/2) / S) for L_sigma, whose cut makes the
    angular direction antiperiodic.  Each determinant is the product of
    mu_k + nu_n over all mode pairs.
    """
    mu = 2 - 2 * np.cos(np.pi * np.arange(1, rings + 1) / (rings + 1))
    n = np.arange(sites)
    nu = 2 - 2 * np.cos(2 * np.pi * n / sites)
    nu_twisted = 2 - 2 * np.cos(2 * np.pi * (n + 0.5) / sites)
    return tuple(float(np.sum(np.log(mu[:, None] + x))) for x in (nu, nu_twisted))


@pytest.mark.parametrize("rings, sites", [(6, 8), (24, 12), (49, 24), (99, 48), (199, 96)])
def test_annulus_ladder_matches_the_fourier_product(monkeypatch, rings, sites):
    """det_ratio, negative_holonomy_mass and loop_mass up to 19,104 interior
    vertices.  Above DENSE_MAX_ORDER neither a dense factor nor a dense
    matrix is formed; below it, L and L_sigma are each factored once."""
    net, gauge = polar_annulus(rings, sites)
    dense = factor_orders(monkeypatch, "cho_factor")
    reads = []
    real = LaplacianMatrix.entries
    monkeypatch.setattr(LaplacianMatrix, "entries",
                        property(lambda lap: reads.append(lap.kind) or real.fget(lap)))
    log_det, log_det_twisted = fourier_log_dets(rings, sites)
    target = math.exp(0.5 * (log_det - log_det_twisted))
    assert det_ratio(net, gauge) == pytest.approx(target, rel=1e-10, abs=0)
    assert math.exp(-negative_holonomy_mass(net, gauge)) == pytest.approx(target, rel=1e-10, abs=0)
    # every interior vertex has weighted degree 4
    assert loop_mass(net) == pytest.approx(rings * sites * math.log(4) - log_det, rel=1e-10, abs=0)
    if len(net.interior) > spectral.DENSE_MAX_ORDER:
        assert dense == [] and reads == []
    else:  # L and L_sigma, each factored once and cached on the network and the gauge
        assert len(dense) == len(reads) == 2


def continuum_event_probability(rings: int, sites: int) -> float:
    """P(T) on the round annulus of polar_annulus(rings, sites)'s modulus:
    the product of tanh(pi k S / (2 (R + 1))) over k >= 1, whose terms past
    k = 60 round to 1 at every aspect ratio used here."""
    return math.prod(math.tanh(math.pi * k * sites / (2 * (rings + 1))) for k in range(1, 61))


def test_annulus_ladder_converges_to_the_continuum():
    """At the aspect ratio 25:12 the discrete P(T) approaches the continuum
    value at O(h^2): its gap shrinks about 4x per doubling, from 24 x 12 to
    199 x 96.  The discrete value is the Fourier product, which
    test_annulus_ladder_matches_the_fourier_product ties to det_ratio to
    1e-10 relative, far below the smallest gap, 4.1e-5."""
    gaps = []
    for rings, sites in [(24, 12), (49, 24), (99, 48), (199, 96)]:
        log_det, log_det_twisted = fourier_log_dets(rings, sites)
        gaps.append(math.exp(0.5 * (log_det - log_det_twisted))
                    - continuum_event_probability(rings, sites))
    assert continuum_event_probability(24, 12) == pytest.approx(0.5620793, abs=1e-7)
    assert all(3.8 <= a / b <= 4.2 for a, b in zip(gaps, gaps[1:]))


def test_banded_factor_reproduces_the_renumbered_operator(monkeypatch):
    """The factor's order follows its route alone: pos is the reversal on the
    dense route and reverse Cuthill-McKee's on the banded one (DENSE_MAX_ORDER
    patched to 0), and C C^T is the operator with position i of
    interior_order in row pos[i], for L, L_sigma, the cover Laplacian and a
    subdivided L of the 6 x 8 annulus.  Both routes give one log determinant."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    log_dets = []
    for threshold in (spectral.DENSE_MAX_ORDER, 0):
        monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", threshold)
        net, gauge = load_network(NETWORKS / "annulus-6x8.json")
        sub, _ = subdivide(net, gauge, 3)
        laps = (laplacian(net), twisted_laplacian(net, gauge),
                cover_laplacian(build_double_cover(net, gauge)), laplacian(sub.network))
        for lap in laps:
            chol, (_, pos, banded) = lap.cholesky(), lap.factor
            m = len(lap.interior_order)
            assert banded is (threshold == 0)
            if banded:
                a = coo_array((lap.values, (lap.rows, lap.cols)), shape=(m, m)).tocsr()
                rcm = reverse_cuthill_mckee(a, symmetric_mode=True)
                assert np.array_equal(pos, np.argsort(rcm))
            else:
                assert np.array_equal(pos, np.arange(m)[::-1])
            renumbered = lap.entries[np.ix_(np.argsort(pos), np.argsort(pos))]
            assert np.array_equal(chol, np.tril(chol))
            assert np.max(np.abs(chol @ chol.T - renumbered)) < 1e-12
        log_dets.append([lap.log_det() for lap in laps])
    assert np.allclose(*log_dets, rtol=1e-12, atol=0)


def test_non_positive_definite_operator_on_the_banded_route_raises(pt, monkeypatch):
    net, gauge = pt
    bad = with_conductances(net, [-e.conductance for e in net.edges])
    bad_gauge = GaugeField(bad, dict(gauge.signs))
    monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", 0)
    for kind, use in [("untwisted", lambda: restricted_green(bad, bad.interior)),
                      ("twisted", lambda: restricted_green(bad, bad.interior, bad_gauge)),
                      ("untwisted", lambda: det_ratio(bad, bad_gauge)),
                      ("untwisted", lambda: loop_mass(bad)),
                      ("untwisted", lambda: LoopSoupSampler(bad, 0.5))]:
        with pytest.raises(InvalidNetworkError, match=f"^{kind} Laplacian is not positive"):
            use()


def test_non_positive_definite_matrix_raises(monkeypatch):
    """On the dense and on the banded route."""
    for threshold in (spectral.DENSE_MAX_ORDER, 0):
        monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", threshold)
        lap = LaplacianMatrix(("a", "b"), np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]),
                              np.array([1.0, 2.0, 2.0, 1.0]), "twisted")
        for use in (lambda: lap.factor, lap.cholesky, lap.log_det,
                    lambda: spectral.green_of(lap)):
            with pytest.raises(InvalidNetworkError, match="twisted Laplacian is not positive"):
                use()


def test_subspace_log_determinants_pt(pt):
    net, gauge = pt
    lp, lm = subspace_log_determinants(net, gauge)
    dp, dm = subspace_determinants(net, gauge)
    assert lp == pytest.approx(math.log(3.0), abs=1e-12)
    assert lm == pytest.approx(math.log(7.0), abs=1e-12)
    assert lp == pytest.approx(math.log(dp), abs=1e-12)
    assert lm == pytest.approx(math.log(dm), abs=1e-12)


def test_subspace_log_determinants_match_laplacian_log_dets():
    rng = np.random.default_rng(29)
    for _ in range(12):
        net, gauge = random_network(rng, max_interior=10)
        lp, lm = subspace_log_determinants(net, gauge)
        assert lp == pytest.approx(laplacian(net).log_det(), abs=1e-10)
        assert lm == pytest.approx(twisted_laplacian(net, gauge).log_det(), abs=1e-10)
        cover_ld = cover_laplacian(build_double_cover(net, gauge)).log_det()
        assert lp + lm == pytest.approx(cover_ld, abs=1e-10)
