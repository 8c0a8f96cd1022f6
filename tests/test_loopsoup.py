import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import ggff
from ggff import (GaugeField, VertexSigns, apply_gauge_transform, edge_key, green,
                  kl_isomorphism_check, loop_mass, sample_loop_soup, soup_moments,
                  split_by_holonomy, negative_holonomy_mass)
from ggff import load_network, loopsoup, spectral
from ggff.gff import _fields
from ggff.loopsoup import (Loop, LoopSoupSample, LoopSoupSampler, _holonomies, _NO_LOOPS,
                           dump_loops_jsonl, soup_summary_dict)
from ggff.seeds import batch_plan, substream

from conftest import (RejectionSoupSampler, factor_orders, holed_grid, path_holonomy,
                      pendant_triangle, polar_annulus, random_network, renumbered)

SOUP_GOLDEN = Path(__file__).resolve().parent / "golden" / "soups"
NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def test_sampler_determinism(pt_net):
    """Seed 0 has loops with jumps, so the comparison reaches their arrays."""
    s1 = sample_loop_soup(pt_net, 0.5, seed=0)
    s2 = sample_loop_soup(pt_net, 0.5, seed=0)
    assert s1.loops
    assert s1 == s2


def test_loops_and_soups_compare_by_value(pt_net):
    """== answers, without raising, over the numpy fields of loops and soups;
    a soup's loops, once read, take no part."""
    soup = sample_loop_soup(pt_net, 0.5, seed=0)
    loop = soup.loops[0]
    copy = Loop(loop.skeleton.copy(), loop.edges.copy(), loop.holding_times.copy())
    other = Loop(loop.skeleton, loop.edges, loop.holding_times * 2.0)
    assert loop == copy and not loop != copy
    assert loop != other and not loop == other
    assert loop != loop.skeleton and soup != loop
    assert soup == dataclasses.replace(soup, jump_free=soup.jump_free.copy())
    flat = soup.skeleton, soup.edges, soup.holding_times
    a = int(soup.ends[1])  # the soup without its first loop
    assert soup != LoopSoupSample(pt_net, *(x[a:] for x in flat), soup.ends[1:] - a,
                                  soup.jump_free, 0.5, 0)
    assert soup == LoopSoupSample(pt_net, *(x.copy() for x in flat), soup.ends.copy(),
                                  soup.jump_free, 0.5, 0)
    assert soup == sample_loop_soup(pt_net, 0.5, seed=0)
    assert soup != dataclasses.replace(soup, jump_free=soup.jump_free + 1.0)
    assert soup != dataclasses.replace(soup, seed=soup.seed + 1)


def test_loops_are_views_of_the_flat_path_formed_once():
    """A soup's loops, formed on first read, are the same tuple on the next
    read, and each loop is the flat arrays cut at ends."""
    net, _ = polar_annulus(6, 8)
    soup = sample_loop_soup(net, 2.0, seed=6)
    loops = soup.loops
    assert soup.loops is loops and len(loops) == len(soup.ends) - 1 == 22
    cuts = soup.ends.tolist()
    assert cuts[0] == 0 and cuts[-1] == len(soup.skeleton) == len(soup.edges)
    for lp, a, b in zip(loops, cuts, cuts[1:]):
        assert b - a >= 2
        for name in ("skeleton", "edges", "holding_times"):
            assert getattr(lp, name).tolist() == getattr(soup, name)[a:b].tolist()
            assert np.shares_memory(getattr(lp, name), getattr(soup, name))


def test_soup_checks_form_no_loop_objects(monkeypatch):
    """soup_moments and kl_isomorphism_check on the 6 x 8 annulus reduce
    200 soups each from their flat paths, constructing no Loop."""
    net, gauge = polar_annulus(6, 8)
    made, real = [], Loop.__init__
    monkeypatch.setattr(Loop, "__init__", lambda self, *args: made.append(1) or real(self, *args))
    moments = soup_moments(net, 0.5, 200, 3, gauge=gauge)
    kl_isomorphism_check(net, gauge, 200, 4)
    assert made == [] and moments.count_mean > 0
    assert len(sample_loop_soup(net, 0.5, seed=3).loops) == len(made) > 0


def test_return_probabilities_pt(pt_net):
    sampler = LoopSoupSampler(pt_net, 0.5)
    # elimination order x < y < z: from x every non-boundary jump returns;
    # from y (x removed) only y->z->y survives; z (x,y removed) has nothing
    assert sampler.return_prob[0] == pytest.approx(2 / 3, abs=1e-12)
    assert sampler.return_prob[1] == pytest.approx(1 / 4, abs=1e-12)
    assert sampler.return_prob[2] == pytest.approx(0.0, abs=1e-12)
    assert float(np.sum(sampler.level_mass)) == pytest.approx(loop_mass(pt_net), abs=1e-12)


def solved_hitting_probabilities(net) -> np.ndarray:
    """The reference h, one dense linear solve per level: row i holds, from
    each v_j, the chance that the jump chain reaches v_i before the boundary
    or any interior vertex below v_i (1 at v_i, 0 below it)."""
    order = net.interior
    index = {v: i for i, v in enumerate(order)}
    m = len(order)
    out = np.zeros((m, m))
    for i in range(m):
        pos = {j: k for k, j in enumerate(range(i + 1, m))}
        a = np.eye(len(pos))
        b = np.zeros(len(pos))
        for j in pos:
            for w, c in net.adjacency[order[j]]:
                code = index.get(w, -1)
                p = c / net.weighted_degree(order[j])
                if code == i:
                    b[pos[j]] += p
                elif code in pos:
                    a[pos[j], pos[code]] -= p
        out[i, i] = 1.0
        out[i, i + 1:] = np.linalg.solve(a, b) if pos else np.zeros(0)
    return out


def solved_return_probabilities(net) -> np.ndarray:
    """The reference r_i: h_i of solved_hitting_probabilities averaged over
    the first jump from v_i."""
    h = solved_hitting_probabilities(net)
    out = np.zeros(len(net.interior))
    for i, v in enumerate(net.interior):
        for w, c in net.adjacency[v]:
            code = net.interior_index.get(w, -1)
            if code > i:
                out[i] += c / net.weighted_degree(v) * h[i, code]
    return out


def sampler_hitting_probabilities(sampler) -> np.ndarray:
    """The h table the sampler walks by, one row per level in interior order."""
    return np.array([sampler._lap.hitting_probabilities(i) for i in range(len(sampler.interior))])


def elimination_test_networks():
    rng = np.random.default_rng(21)
    nets = [random_network(rng)[0] for _ in range(33)]
    return nets + [polar_annulus(6, 8)[0]]


def test_pivot_return_probabilities_match_linear_solves():
    for net in elimination_test_networks():
        sampler = LoopSoupSampler(net, 0.5)
        ref = solved_return_probabilities(net)
        assert np.max(np.abs(sampler.return_prob - ref)) <= 1e-12


def test_hitting_probabilities_match_linear_solves():
    """Every level's h, read off the factor, against a dense solve per level,
    with exact zeros below the level and at every vertex cut off from it."""
    for net in elimination_test_networks():
        h = sampler_hitting_probabilities(LoopSoupSampler(net, 0.5))
        ref = solved_hitting_probabilities(net)
        assert np.max(np.abs(h - ref)) <= 1e-12
        assert np.array_equal(h == 0.0, ref == 0.0)
        assert not np.any(np.tril(h, -1))


def banded_and_renamed_dense(monkeypatch, make) -> tuple:
    """(banded, dense, perm): the sampler of make()'s network on the banded
    route, whose factor takes reverse Cuthill-McKee order pos, the sampler of
    the same network renamed so that the dense route eliminates in order pos
    (conftest.renumbered), and perm, each vertex's index in the renamed
    network."""
    net, gauge = make()
    with monkeypatch.context() as mp:
        mp.setattr(spectral, "DENSE_MAX_ORDER", 0)
        banded = LoopSoupSampler(net, 0.5)
    pos = banded._lap.factor[1]
    assert banded._lap.factor[2] and not np.array_equal(pos, np.arange(len(pos))[::-1])
    dense = LoopSoupSampler(renumbered(net, gauge, pos)[0], 0.5)
    perm = len(pos) - 1 - pos
    assert not dense._lap.factor[2] and np.array_equal(dense._lap.factor[1][perm], pos)
    return banded, dense, perm


def test_hitting_probabilities_follow_the_factor_order(monkeypatch):
    """Banded in reverse Cuthill-McKee order, a vertex's row is killed at the
    vertices after it in that order: the dense factor of the network renamed
    into that order gives the same rows."""
    banded, dense, perm = banded_and_renamed_dense(monkeypatch, holed_grid)
    for s in range(0, len(perm), 7):
        row = banded._lap.hitting_probabilities(s)
        same = dense._lap.hitting_probabilities(perm[s])[perm]
        assert np.max(np.abs(row - same)) <= 1e-12
        assert np.array_equal(row == 0.0, same == 0.0) and row[s] == pytest.approx(1.0)


def test_no_later_interior_neighbour_gives_exactly_zero(monkeypatch):
    """A vertex with no interior neighbour later in the levels' order, that
    is, in an earlier row of the factor (dense: later in sorted order;
    banded: before it in reverse Cuthill-McKee order), roots no multi-vertex
    loop; its r_i must be 0.0 exactly, not a rounding residue, so that
    sample_with skips it.  Checked with the factor on the dense and on the
    banded route, each on networks of its own, since a network keeps the
    route its first sampler took."""
    seen = 0
    for threshold in (spectral.DENSE_MAX_ORDER, 0):
        monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", threshold)
        for net in [pendant_triangle()[0]] + elimination_test_networks():
            sampler = LoopSoupSampler(net, 0.5)
            pos = sampler._lap.factor[1]
            assert sampler._lap.factor[2] == (threshold == 0)
            for i, v in enumerate(net.interior):
                if all(pos[net.interior_index[w]] > pos[i]
                       for w, _ in net.adjacency[v] if w in net.interior_index):
                    assert sampler.return_prob[i] == 0.0
                    assert sampler.level_mass[i] == 0.0
                    seen += 1
                else:
                    assert sampler.return_prob[i] > 0.0
    assert seen >= 2 * 34  # at least the first row's vertex of every network, on each route


@pytest.mark.parametrize("make", [lambda: polar_annulus(6, 8), holed_grid],
                         ids=["annulus-6x8", "holed-grid"])
def test_banded_route_gives_the_dense_return_probabilities(monkeypatch, make):
    """The sampler's banded factor, in reverse Cuthill-McKee order, gives the
    return and hitting probabilities of the dense route on the network
    renamed into that order, with the same exact zeros; the banded set-up
    factors no dense matrix."""
    calls = factor_orders(monkeypatch, "cho_factor")
    banded, dense, perm = banded_and_renamed_dense(monkeypatch, make)
    assert calls == [len(perm)]  # the renamed network's dense factor only
    assert np.max(np.abs(banded.return_prob - dense.return_prob[perm])) <= 1e-14
    assert np.array_equal(banded.return_prob == 0.0, dense.return_prob[perm] == 0.0)
    assert float(np.sum(banded.level_mass)) == pytest.approx(loop_mass(banded.network), abs=1e-10)
    h_banded = sampler_hitting_probabilities(banded)
    h_dense = sampler_hitting_probabilities(dense)[np.ix_(perm, perm)]
    assert np.max(np.abs(h_banded - h_dense)) <= 1e-12
    assert np.array_equal(h_banded == 0.0, h_dense == 0.0)


@pytest.mark.parametrize("make", [lambda: polar_annulus(6, 8), holed_grid],
                         ids=["annulus-6x8", "holed-grid"])
def test_banded_walk_draws_the_table_walks_loops(monkeypatch, make):
    """The banded route forms each jump's weights from h, the dense one bisects
    its transition table.  On the network renamed into the banded factor's
    order, the dense route takes the levels and each source's jumps in the
    same order, and the routes' h agree to 1e-12, so only a uniform that
    close to a step of a transition CDF could choose differently."""
    banded, dense, perm = banded_and_renamed_dense(monkeypatch, make)
    assert dense._rows is not None and banded._rows is None
    # the renamed network's interior indices and interior edge positions in net's
    vertex = np.argsort(perm)
    _, u, v, _ = banded.network.interior_edges
    position = {(a, b): k for k, (a, b) in enumerate(zip(u.tolist(), v.tolist()))}
    _, u2, v2, _ = dense.network.interior_edges
    edge = np.array([position[min(a, b), max(a, b)]
                     for a, b in zip(vertex[u2].tolist(), vertex[v2].tolist())])
    loops = 0
    for seed in range(200):
        soup = banded.sample(seed)
        assert list(soup.loops) == [Loop(vertex[lp.skeleton], edge[lp.edges], lp.holding_times)
                                    for lp in dense.sample(seed).loops], seed
        loops += len(soup.loops)
    assert loops > 800


@pytest.mark.parametrize("threshold", [spectral.DENSE_MAX_ORDER, 0], ids=["dense", "banded"])
def test_hitting_probabilities_of_an_array_stack_the_scalar_calls(monkeypatch, threshold):
    """One column per position, in the order given, bit for bit the scalar
    call's, for L and L_sigma on either route."""
    monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", threshold)
    rng = np.random.default_rng(43)
    for net, gauge in (polar_annulus(6, 8), holed_grid()):
        m = len(net.interior)
        for lap in (spectral.laplacian(net), spectral.twisted_laplacian(net, gauge)):
            assert lap.factor[2] == (threshold == 0)
            for s in (np.arange(m), rng.integers(0, m, 17)):
                stacked = np.stack([lap.hitting_probabilities(t) for t in s.tolist()], axis=1)
                assert np.array_equal(lap.hitting_probabilities(s), stacked)


def test_transition_rows_are_the_running_sums_of_each_vertexs_weights():
    """On the dense route, level i's row holds, for each vertex x, the sums
    acc += P(x, y) h_i(y) over x's interior neighbours y in sorted order,
    bit for bit, with P(x, y) = C(x, y) / W(x) read off the network."""
    for net in (polar_annulus(6, 8)[0], holed_grid()[0]):
        sampler, ids = LoopSoupSampler(net, 0.5), net.interior
        neighbours = [sorted(net.interior_index[w] for w, _ in net.adjacency[v]
                             if w in net.interior_index) for v in ids]
        for i in range(0, len(ids), 3):
            h, row = sampler._lap.hitting_probabilities(i).tolist(), sampler._rows[i].tolist()
            for x, (a, b) in enumerate(sampler._spans):
                assert [y for y, *_ in sampler._hops[a:b + 1]] == neighbours[x]
                acc, sums = 0.0, []
                for y in neighbours[x]:
                    c = net.edge_map[edge_key(ids[x], ids[y])].conductance
                    acc += c / net.weighted_degree(ids[x]) * h[y]
                    sums.append(acc)
                assert row[a:b + 1] == sums, (i, x)


def test_banded_soup_forms_no_square_array():
    """On polar_annulus(49, 24), 1,176 interior vertices, above
    DENSE_MAX_ORDER, a soup's set-up and sampling allocate less than a
    quarter of one m x m array at any time: h comes one level at a time.
    A first set-up, untraced, on an equal network (the traced set-up would
    otherwise read its cache), loads the modules the banded route imports."""
    import tracemalloc

    net, _ = polar_annulus(49, 24)
    m = len(net.interior)
    assert m == 1176 > spectral.DENSE_MAX_ORDER
    LoopSoupSampler(polar_annulus(49, 24)[0], 0.5)
    tracemalloc.start()
    try:
        soup = LoopSoupSampler(net, 0.5).sample(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(soup.loops) > 100
    assert peak < m * m * 8 / 4


def test_annulus_ids_sort_in_lattice_order_past_100_rings():
    """On 199 x 96 the sorted interior runs ring by ring, so no interior edge
    spans more than one ring of 96 sites in sorted order."""
    net, _ = polar_annulus(199, 96)
    _, u, v, _ = net.interior_edges
    assert int(np.max(np.abs(u - v))) == 96


def test_level_masses_add_up_to_loop_mass_on_the_annulus():
    net, _ = polar_annulus(24, 12)
    sampler = LoopSoupSampler(net, 0.5)
    assert float(np.sum(sampler.level_mass)) == pytest.approx(loop_mass(net), abs=1e-10)


def test_sampler_setup_is_one_cholesky_and_no_solve(monkeypatch):
    net, _ = polar_annulus(6, 8)
    calls = {"cho_factor": 0, "cholesky": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(spectral.sla, "cho_factor",
                        counted("cho_factor", spectral.sla.cho_factor))
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    LoopSoupSampler(net, 0.5)
    assert calls == {"cho_factor": 1, "cholesky": 0, "solve": 0}
    LoopSoupSampler(net, 0.7)  # the network's elimination is built once
    assert calls == {"cho_factor": 1, "cholesky": 0, "solve": 0}


def test_soup_checks_share_one_elimination(monkeypatch):
    """soup_moments at alpha = 0.7, then kl_isomorphism_check at 1/2, on one
    network: their samplers share one factor, which is the network's cached
    L, one transition table and one set of level masses, and each
    keeps its own alpha's cumulative masses.  L and L_sigma are factored once."""
    net, gauge = polar_annulus(6, 8)
    samplers, real = [], LoopSoupSampler.__init__

    def recording(self, *args):
        real(self, *args)
        samplers.append(self)

    monkeypatch.setattr(LoopSoupSampler, "__init__", recording)
    calls = factor_orders(monkeypatch, "cho_factor")
    soup_moments(net, 0.7, 8, 1, gauge=gauge)
    kl_isomorphism_check(net, gauge, 8, 2)
    assert calls == [48, 48]
    moments, kl = samplers
    assert moments._lap is kl._lap is spectral.laplacian(net)
    assert moments._rows is kl._rows and moments.level_mass is kl.level_mass
    for sampler, alpha in ((moments, 0.7), (kl, 0.5)):
        assert sampler.alpha == alpha
        assert sampler._cum_mass == np.cumsum(alpha * sampler.level_mass).tolist()


def test_soups_on_the_annulus_keep_their_bits_across_thread_counts():
    """Three batches of 32 soups on 48 interior vertices, at 1 and 2 threads."""
    net, gauge = polar_annulus(6, 8)
    runs = [(soup_moments(net, 0.5, 96, seed=14, gauge=gauge, threads=t, batch_size=32),
             kl_isomorphism_check(net, gauge, 96, seed=15, threads=t, batch_size=32))
            for t in (1, 2)]
    (mom1, kl1), (mom2, kl2) = runs
    for field in vars(mom1):
        assert np.array_equal(getattr(mom1, field), getattr(mom2, field)), field
    for field in vars(kl1):
        assert np.array_equal(getattr(kl1, field), getattr(kl2, field)), field
    assert mom1.negative_count_mean > 0


def per_soup_occupation(soup) -> np.ndarray:
    """One soup's occupation field as a single bincount of its loops' visits,
    then its jump-free totals."""
    visits = np.concatenate([lp.skeleton for lp in soup.loops] + [np.arange(len(soup.jump_free))])
    times = np.concatenate([lp.holding_times for lp in soup.loops] + [soup.jump_free])
    return np.bincount(visits, weights=times)


def per_soup_sums(sampler, features, n_soups: int, seed: int, batch_size: int) -> np.ndarray:
    """features(soup, rng) summed with sum(), soup by soup and batch by batch,
    soup s of batch i drawn from rng = substream(seed, i, s)."""
    def batch(bi, bn):
        rngs = (substream(seed, bi, s) for s in range(bn))
        return sum(features(sampler.sample_with(rng, seed), rng) for rng in rngs)

    return sum(batch(i, n) for i, n in batch_plan(n_soups, batch_size))


def moment_features(net, alpha, gauge):
    sampler = LoopSoupSampler(net, alpha)

    def features(soup, _):
        neg = np.count_nonzero(_holonomies((soup,), gauge) == -1)
        x = np.concatenate(([len(soup.ends) - 1, neg], per_soup_occupation(soup)))
        return np.array((x, x ** 2, x ** 4))

    return sampler, features


def kl_features(net, gauge):
    from scipy.special import erfinv

    sampler = LoopSoupSampler(net, 0.5)
    twisted = spectral.twisted_laplacian(net, gauge)
    deciles = np.array([2.0 * erfinv(k / 10.0) ** 2 for k in range(1, 10)])
    grids = np.outer(sampler._lap.inverse_diagonal, deciles)

    def features(soup, rng):
        plus, minus = split_by_holonomy(soup, gauge)
        phi_s = _fields(twisted, rng, 1)[:, 0]
        phi_u = _fields(sampler._lap, rng, 1)[:, 0]
        x = np.concatenate((per_soup_occupation(plus),
                            0.5 * phi_s ** 2 + per_soup_occupation(minus)))
        return np.concatenate((x, x ** 2, x ** 4, (phi_s[:, None] ** 2 <= grids).ravel(),
                               (phi_u[:, None] ** 2 <= grids).ravel()))

    return sampler, features


@pytest.mark.parametrize("block", [loopsoup._REDUCE_BLOCK, 100])
@pytest.mark.parametrize("batch_size", [1, 7, 256])
@pytest.mark.parametrize("name, dense_max_order", [
    ("pt", spectral.DENSE_MAX_ORDER), ("annulus-6x8", spectral.DENSE_MAX_ORDER),
    ("pt", 0), ("annulus-6x8", 0)], ids=["pt", "annulus-6x8", "pt-banded", "annulus-6x8-banded"])
def test_batch_reduce_keeps_the_per_soup_sums_bits(monkeypatch, name, dense_max_order,
                                                   batch_size, block):
    """The soup checks' sums, each batch's soups reduced at once, equal to the
    bit the sums of one feature vector per soup, at 1 and 2 threads, also
    where a worker reduces its batch in parts (block 100), and on the banded
    route, where kl colours each soup's fields by its own solves.  Soup 0 of
    batch 0 on PT at seed 1 has no loop with jumps, so at batch size 1 a
    reduce there concatenates no loop at all."""
    monkeypatch.setattr(spectral, "DENSE_MAX_ORDER", dense_max_order)
    net, gauge = load_network(NETWORKS / f"{name}.json")
    n_soups, seed = 20, 1
    monkeypatch.setattr(loopsoup, "_REDUCE_BLOCK", block)
    sums, real = [], loopsoup._soup_sums
    monkeypatch.setattr(loopsoup, "_soup_sums", lambda *args: sums.append(real(*args)) or sums[-1])
    sampler, moment = moment_features(net, 0.5, gauge)
    _, kl = kl_features(net, gauge)
    assert sampler._lap.factor[2] is (dense_max_order == 0)
    if name == "pt":
        assert sampler.sample_with(substream(seed, 0, 0), seed).loops == ()
    references = [per_soup_sums(sampler, moment, n_soups, seed, batch_size).ravel(),
                  per_soup_sums(sampler, kl, n_soups, seed, batch_size)]
    for threads in (1, 2):
        sums.clear()
        soup_moments(net, 0.5, n_soups, seed, gauge=gauge, threads=threads, batch_size=batch_size)
        kl_isomorphism_check(net, gauge, n_soups, seed, threads=threads, batch_size=batch_size)
        assert [s.tobytes() for s in sums] == [r.tobytes() for r in references]


def test_soup_checks_sample_each_soup_once(monkeypatch):
    """soup_moments and kl_isomorphism_check call sample_with once per soup,
    the call through which a traced run counts soups, loops and jumps."""
    net, gauge = polar_annulus(6, 8)
    calls, real = [], LoopSoupSampler.sample_with
    monkeypatch.setattr(LoopSoupSampler, "sample_with",
                        lambda self, rng, seed: calls.append(seed) or real(self, rng, seed))
    monkeypatch.setattr(loopsoup, "_REDUCE_BLOCK", 100)
    soup_moments(net, 0.5, 37, 3, gauge=gauge, batch_size=7)
    assert calls == [3] * 37
    kl_isomorphism_check(net, gauge, 37, 4, batch_size=7)
    assert calls == [3] * 37 + [4] * 37


def test_elimination_mass_matches_loop_mass_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net, _ = random_network(rng, max_interior=8)
        sampler = LoopSoupSampler(net, 1.0)
        assert float(np.sum(sampler.level_mass)) == pytest.approx(loop_mass(net), abs=1e-10)


def adjacent_pairs(net) -> set[tuple[int, int]]:
    """Ordered pairs of interior indices joined by an interior edge."""
    _, u, v, _ = net.interior_edges
    return set(zip(u.tolist(), v.tolist())) | set(zip(v.tolist(), u.tolist()))


def test_loops_respect_interior_adjacency(pt_net):
    """Every loop is rooted at its minimal vertex, never visits a vertex
    below its root (killed at its level), and steps along interior edges, on
    PT, the 6 x 8 annulus and seeded random networks."""
    rng = np.random.default_rng(23)
    nets = [pt_net, polar_annulus(6, 8)[0]] + [random_network(rng)[0] for _ in range(20)]
    for k, net in enumerate(nets):
        m, adjacent = len(net.interior), adjacent_pairs(net)
        for seed in range(50 if k == 0 else 10):
            soup = sample_loop_soup(net, 0.7, seed=seed)
            assert soup.jump_free.shape == (m,) and np.all(soup.jump_free > 0)
            for lp in soup.loops:
                skel = lp.skeleton.tolist()
                assert all(0 <= j < m for j in skel) and len(skel) >= 2
                assert np.all(lp.holding_times > 0)
                assert len(lp.holding_times) == len(lp.edges) == len(skel)
                assert all(step in adjacent for step in zip(skel, skel[1:] + skel[:1]))
                assert skel[0] == min(skel)  # rooted at minimum


def test_loop_edges_join_consecutive_visits_and_give_the_path_holonomy(pt):
    """edges[k] joins skeleton[k] and skeleton[k + 1], cyclically, and each
    loop's holonomy from _holonomies equals the product of GaugeField.sign
    along the closed path of vertex ids, on PT, the 6 x 8 annulus and 20
    seeded random networks."""
    rng = np.random.default_rng(43)
    cases = [pt, polar_annulus(6, 8)] + [random_network(rng) for _ in range(20)]
    seen = {1: 0, -1: 0}
    for net, gauge in cases:
        _, u, v, _ = net.interior_edges
        for seed in range(10):
            soup = sample_loop_soup(net, 2.0, seed=seed)
            for lp, h in zip(soup.loops, _holonomies((soup,), gauge).tolist(), strict=True):
                skel, n = lp.skeleton.tolist(), len(lp.skeleton)
                for k, e in enumerate(lp.edges.tolist()):
                    assert {int(u[e]), int(v[e])} == {skel[k], skel[(k + 1) % n]}
                ids = tuple(net.interior[j] for j in skel)
                assert h == path_holonomy(gauge, *ids, ids[0])
                seen[h] += 1
    assert min(seen.values()) > 20, seen  # both holonomies, many times over


class LargestUniforms:
    """A generator whose every eighth uniform is 1 - 2**-53, the largest that
    numpy's random() returns; other draws come from the wrapped generator.
    (With more of them an excursion could drift away from its root for ever.)"""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.largest = 0

    def random(self, size):
        u = self.rng.random(size)
        u[::8] = 1.0 - 2.0 ** -53
        self.largest += len(u[::8])
        return u

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_largest_uniform_never_picks_a_zero_weight_target():
    """Killed neighbours and the boundary have h = 0; even the largest
    uniform, scaled by the rounded total weight, must not pick them."""
    rng = np.random.default_rng(29)
    nets = [polar_annulus(6, 8)[0]] + [random_network(rng)[0] for _ in range(20)]
    drawn = 0
    for net in nets:
        sampler, adjacent = LoopSoupSampler(net, 2.0), adjacent_pairs(net)
        for seed in range(20):
            stub = LargestUniforms(np.random.default_rng(seed))
            soup = sampler.sample_with(stub, seed)
            drawn += stub.largest
            for lp in soup.loops:
                skel = lp.skeleton.tolist()
                assert min(skel) == skel[0]
                assert all(step in adjacent for step in zip(skel, skel[1:] + skel[:1]))
    assert drawn > 1000


def test_multi_vertex_count_poisson(pt_net, pt_gauge):
    n = 10_000
    mom = soup_moments(pt_net, 0.5, n, seed=3, gauge=pt_gauge)
    lam = mom.count_target
    assert lam == pytest.approx(0.5 * math.log(4), abs=1e-12)
    assert abs(mom.count_mean - lam) <= 3 * mom.count_se
    # variance equals the mean for a Poisson count; SE of the sample variance
    # for Poisson(lam) is sqrt((2 lam^2 + lam)/n)
    se_var = math.sqrt((2 * lam * lam + lam) / n)
    assert abs(mom.count_var - lam) <= 3 * se_var


def test_empty_soup_probability_small_alpha(pt_net):
    alpha = 1e-3
    lam = alpha * loop_mass(pt_net)
    n = 4000
    empty = sum(len(sample_loop_soup(pt_net, alpha, seed=s).ends) == 1
                for s in range(n))
    p = math.exp(-lam)
    assert abs(empty / n - p) <= 4 * math.sqrt(p * (1 - p) / n) + 1e-12


def test_occupation_field_empty_and_sums(pt):
    """Both occupation views, the vector and the summary's dict by vertex id,
    equal the visit-by-visit loop, followed by the jump-free totals, to the
    bit, on the whole soup and on its holonomy -1 part; a soup without loops
    has none."""
    annulus, annulus_gauge = polar_annulus(6, 8)
    for net, gauge in (pt, (annulus, annulus_gauge)):
        sampler = LoopSoupSampler(net, 0.5)
        for seed in range(5):
            for soup in (sampler.sample(seed), split_by_holonomy(sampler.sample(seed), gauge)[1]):
                manual = {v: 0.0 for v in net.interior}
                for lp in soup.loops:
                    for v, t in zip(lp.skeleton.tolist(), lp.holding_times):
                        manual[net.interior[v]] += float(t)
                for v, t in zip(net.interior, soup.jump_free):
                    manual[v] += float(t)
                assert soup_summary_dict(soup)["occupation_field"] == manual
                assert sampler.occupation_vector(soup).tolist() == list(manual.values())
    empty = LoopSoupSample(pt[0], *_NO_LOOPS, np.zeros(3), 0.5, 0)
    assert LoopSoupSampler(pt[0], 0.5).occupation_vector(empty).tolist() == [0.0] * 3


def test_le_jan_occupation_moments(pt_net, pt_gauge):
    mom = soup_moments(pt_net, 0.5, 10_000, seed=4, gauge=pt_gauge)
    ix = mom.vertices.index("x")
    assert mom.occupation_mean_target[ix] == pytest.approx(0.5, abs=1e-12)
    assert mom.occupation_second_target[ix] == pytest.approx(0.75, abs=1e-12)
    assert np.all(np.abs(mom.occupation_mean - mom.occupation_mean_target)
                  <= 3 * mom.occupation_mean_se)
    assert np.all(np.abs(mom.occupation_second - mom.occupation_second_target)
                  <= 4 * mom.occupation_second_se)


def test_occupation_mean_alpha_one(pt_net, pt_gauge):
    mom = soup_moments(pt_net, 1.0, 8_000, seed=5, gauge=pt_gauge)
    assert np.all(np.abs(mom.occupation_mean - mom.occupation_mean_target)
                  <= 3 * mom.occupation_mean_se)


def test_split_by_holonomy_partition_and_occupation(pt):
    net, gauge = pt
    sampler = LoopSoupSampler(net, 0.5)
    for seed in range(30):
        soup = sample_loop_soup(net, 0.5, seed=seed)
        plus, minus = split_by_holonomy(soup, gauge)
        assert len(plus.loops) + len(minus.loops) == len(soup.loops)
        assert np.all(_holonomies((plus,), gauge) == 1)
        assert np.all(_holonomies((minus,), gauge) == -1)
        assert plus.jump_free is soup.jump_free and not np.any(minus.jump_free)
        parts = sampler.occupation_vector(plus) + sampler.occupation_vector(minus)
        assert np.allclose(sampler.occupation_vector(soup), parts, rtol=0.0, atol=1e-12)


def test_sampling_splitting_and_occupation_walk_no_vertex_ids(monkeypatch):
    """Loops are integer paths: sampling, splitting and occupation never call
    GaugeField.sign or edge_key, and the split is still a partition by the
    parity of each loop's -1 edges, each part keeping the soup's loops in
    order, on the 6 x 8 annulus, whose cut makes loops around the hole
    negative."""
    net, gauge = polar_annulus(6, 8)
    sampler = LoopSoupSampler(net, 2.0)

    def forbidden(*_):
        raise AssertionError("a loop was walked by vertex ids")

    monkeypatch.setattr(GaugeField, "sign", forbidden)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ggff" and hasattr(module, "edge_key"):
            monkeypatch.setattr(module, "edge_key", forbidden)
    # soups 0-9, then on until one has a holonomy -1 loop: a soup has 0.12 of
    # them on average, so ten soups alone have none 29 % of the time
    negatives, seed = 0, 0
    while seed < 10 or (not negatives and seed < 200):
        soup = sampler.sample(seed)
        seed += 1
        plus, minus = split_by_holonomy(soup, gauge)
        odd = [np.count_nonzero(gauge.interior_signs[lp.edges] == -1) % 2 for lp in soup.loops]
        assert plus.loops == tuple(lp for lp, o in zip(soup.loops, odd) if o == 0)
        assert minus.loops == tuple(lp for lp, o in zip(soup.loops, odd) if o == 1)
        assert np.all(_holonomies((plus,), gauge) == 1)
        assert np.all(_holonomies((minus,), gauge) == -1)
        whole = sampler.occupation_vector(soup)
        parts = sampler.occupation_vector(plus) + sampler.occupation_vector(minus)
        assert np.allclose(parts, whole, rtol=1e-12, atol=0.0)
        assert list(soup_summary_dict(soup)["occupation_field"].values()) == whole.tolist()
        negatives += len(minus.loops)
    assert negatives > 0


def test_split_trivial_gauge_negative_empty(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    soup = sample_loop_soup(pt_net, 0.5, seed=8)
    _, minus = split_by_holonomy(soup, gauge)
    assert minus.loops == ()


def crafted_soup(net, *loops: tuple[str, ...]) -> LoopSoupSample:
    """The soup of the integer loops through each tuple of vertex ids, in
    order, back to its first: interior indices and positions in
    net.interior_edges, a unit time each, and no jump-free time."""
    position = {k: e for e, k in enumerate(net.interior_edges[0])}
    ids = [v for lp in loops for v in lp]
    edges = [position[edge_key(a, b)] for lp in loops for a, b in zip(lp, lp[1:] + lp[:1])]
    return LoopSoupSample(net, np.array([net.interior_index[v] for v in ids]), np.array(edges),
                          np.ones(len(ids)), np.cumsum([0, *map(len, loops)]),
                          np.zeros(len(net.interior)), 0.5, 0)


def test_crafted_skeleton_even_traversals_positive(pt):
    net, gauge = pt
    soup = crafted_soup(net, ("x", "y", "z", "x", "z", "y"),  # crosses yz twice
                        ("y", "z"),  # out-and-back over the -1 edge
                        ("x", "y", "z"))  # the triangle
    assert soup.loops[0].skeleton.tolist() == [0, 1, 2, 0, 2, 1]
    assert _holonomies((soup,), gauge).tolist() == [1, 1, -1]


def test_holonomy_classification_gauge_invariant():
    rng = np.random.default_rng(6)
    net, gauge = random_network(rng, max_interior=6)
    vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1) for v in net.vertices})
    transformed = apply_gauge_transform(vs, gauge)
    for seed in range(20):
        soup = sample_loop_soup(net, 0.6, seed=seed)
        assert np.array_equal(_holonomies((soup,), gauge), _holonomies((soup,), transformed))


def test_negative_holonomy_count_mean(pt):
    net, gauge = pt
    mom = soup_moments(net, 0.5, 10_000, seed=7, gauge=gauge)
    assert mom.negative_count_target == pytest.approx(
        0.5 * negative_holonomy_mass(net, gauge), abs=1e-12)
    assert abs(mom.negative_count_mean - mom.negative_count_target) \
        <= 3 * mom.negative_count_se


def test_kl_isomorphism_check_pt(pt):
    net, gauge = pt
    rep = kl_isomorphism_check(net, gauge, 10_000, seed=8)
    assert np.all(np.abs(rep.mean_diff_se) <= 4)
    assert np.all(np.abs(rep.second_diff_se) <= 4)
    assert rep.domination_margin_se >= -4
    # analytic mean of both sides: (G(x,x) + G_sigma(x,x)) / 4
    g = green(net)
    gs = ggff.twisted_green(net, gauge)
    target = 0.25 * (np.diag(g.entries) + np.diag(gs.entries))
    assert np.all(np.abs(rep.left_mean - target) < 0.05)


def test_kl_trivial_gauge_reduces_to_le_jan(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    rep = kl_isomorphism_check(pt_net, gauge, 5_000, seed=9)
    g = np.diag(green(pt_net).entries)
    assert np.all(np.abs(rep.left_mean - 0.5 * g) < 0.06)
    assert np.all(np.abs(rep.mean_diff_se) <= 4)


def test_soup_summary_and_dump(tmp_path, pt):
    net, gauge = pt
    soup = sample_loop_soup(net, 0.5, seed=10)
    summary = soup_summary_dict(soup, gauge)
    assert summary["n_loops_multi_vertex"] == len(soup.ends) - 1 == len(soup.loops)
    assert set(summary["occupation_field"]) == set(net.interior)
    assert summary["counts_by_holonomy"]["+1"] + summary["counts_by_holonomy"]["-1"] \
        == len(soup.ends) - 1
    path = tmp_path / "loops.jsonl"
    dump_loops_jsonl(soup, path)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(lines) == len(soup.loops) + len(net.interior)
    assert all(len(l["skeleton"]) == len(l["holding_times"]) for l in lines)
    assert [l["holding_times"][0] for l in lines[-3:]] == soup.jump_free.tolist()


def test_alpha_must_be_positive(pt_net):
    with pytest.raises(ValueError):
        sample_loop_soup(pt_net, 0.0, seed=0)
    for alpha in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            LoopSoupSampler(pt_net, alpha)


@pytest.mark.parametrize("network, alpha, seed", [
    ("pt", 0.5, 10), ("annulus-6x8", 0.5, 11), ("annulus-6x8", 2.0, 6)],
    ids=["pt-10", "annulus-6x8-11", "annulus-6x8-alpha2-6"])
def test_soup_dump_and_summary_match_golden(tmp_path, network, alpha, seed):
    """The loop dump and the summary of one soup keep every byte of
    tests/golden/soups/, recorded by the h-transform sampler: loops from
    one Poisson process over the level masses, then their excursion counts,
    then uniforms in blocks of 32, holding times in one draw per soup.  A
    change to how the sampler draws re-records them, in a commit of their own.
    The annulus soup at alpha 2, seed 6, holds 22 loops with jumps, one of
    holonomy -1 and three of two or more excursions, so that its dump pins
    where each loop starts and its summary the holonomy split."""
    net, gauge = load_network(NETWORKS / f"{network}.json")
    soup = sample_loop_soup(net, alpha, seed=seed)
    dump_loops_jsonl(soup, tmp_path / "loops.jsonl")
    summary = json.dumps(soup_summary_dict(soup, gauge), indent=2) + "\n"
    stem = SOUP_GOLDEN / (f"{network}-seed{seed}" if alpha == 0.5
                          else f"{network}-alpha{alpha:g}-seed{seed}")
    assert (tmp_path / "loops.jsonl").read_bytes() == stem.with_suffix(".jsonl").read_bytes()
    assert summary == stem.with_name(stem.name + "-summary.json").read_text()


def soup_statistics(sampler, n: int, seed: int):
    """Over n soups from one generator: the number of soups; every loop's
    root level and number of excursions (visits to the root); every
    excursion's number of jumps; each soup's occupation total."""
    rng = np.random.default_rng(seed)
    roots, excursions, lengths, totals = [], [], [], []
    for _ in range(n):
        soup = sampler.sample_with(rng, seed)
        for lp in soup.loops:
            visits = np.flatnonzero(lp.skeleton == lp.skeleton[0])
            roots.append(int(lp.skeleton[0]))
            excursions.append(len(visits))
            lengths.extend(np.diff(np.append(visits, len(lp.skeleton))).tolist())
        totals.append(float(sampler.occupation_vector(soup).sum()))
    return n, np.array(roots), np.array(excursions), np.array(lengths), np.array(totals)


def pooled_chi2(a: np.ndarray, b: np.ndarray, least: int = 20) -> float:
    """p-value of a chi-squared homogeneity test of two integer samples,
    neighbouring values pooled until each bin holds at least `least`."""
    bins, acc = [], np.zeros(2, dtype=int)
    for v in np.union1d(a, b):
        acc += (np.sum(a == v), np.sum(b == v))
        if acc.sum() >= least:
            bins.append(acc)
            acc = np.zeros(2, dtype=int)
    bins[-1] = bins[-1] + acc
    return float(stats.chi2_contingency(np.array(bins).T)[1])


def two_sample_pvalues(a, b) -> dict:
    """Four two-sample tests of soup_statistics: the total loop count
    (binomial given the sum), the loops' root levels and the excursion
    lengths (chi-squared), the occupation totals (Kolmogorov-Smirnov)."""
    (na, ra, _, la, ta), (nb, rb, _, lb, tb) = a, b
    return {"loops": stats.binomtest(len(ra), len(ra) + len(rb), na / (na + nb)).pvalue,
            "levels": pooled_chi2(ra, rb), "lengths": pooled_chi2(la, lb),
            "occupation": float(stats.ks_2samp(ta, tb).pvalue)}


# each two-sample p-value must stay above this, so four tests reject a
# correct sampler in at most about 0.4 % of seeds
TWO_SAMPLE_P = 1e-3
TWO_SAMPLE_NETWORKS = {"annulus-6x8": (lambda: polar_annulus(6, 8), 4000),
                       "holed-grid": (holed_grid, 1000)}


@pytest.fixture(scope="module")
def rejection_statistics():
    """soup_statistics of the rejection sampler, by network, at alpha 1/2."""
    out = {}
    for name, (make, n) in TWO_SAMPLE_NETWORKS.items():
        out[name] = soup_statistics(RejectionSoupSampler(make()[0], 0.5), n, 31)
    return out


@pytest.mark.parametrize("name", sorted(TWO_SAMPLE_NETWORKS))
def test_h_transform_matches_the_rejection_sampler(rejection_statistics, name):
    make, n = TWO_SAMPLE_NETWORKS[name]
    ours = soup_statistics(LoopSoupSampler(make()[0], 0.5), n, 37)
    p = two_sample_pvalues(rejection_statistics[name], ours)
    assert min(p.values()) > TWO_SAMPLE_P, p


@pytest.mark.parametrize("name", sorted(TWO_SAMPLE_NETWORKS))
def test_two_sample_test_rejects_an_untilted_walk(rejection_statistics, monkeypatch, name):
    """h = 1 on every vertex not killed: the walk is never killed, but its
    excursions are not the conditioned ones.  A twentieth of the soups
    suffice.  An array of levels gets one such column each."""
    def untilted(lap, s):
        return (np.subtract.outer(np.arange(len(lap.interior_order)), s) >= 0).astype(float)

    make, n = TWO_SAMPLE_NETWORKS[name]
    monkeypatch.setattr(spectral.LaplacianMatrix, "hitting_probabilities", untilted)
    wrong = soup_statistics(LoopSoupSampler(make()[0], 0.5), n // 20, 37)
    p = two_sample_pvalues(rejection_statistics[name], wrong)
    assert p["lengths"] < TWO_SAMPLE_P, p


@pytest.mark.parametrize("name", sorted(TWO_SAMPLE_NETWORKS))
def test_two_sample_test_rejects_alpha_off_by_five_percent(rejection_statistics, name):
    make, n = TWO_SAMPLE_NETWORKS[name]
    wrong = soup_statistics(LoopSoupSampler(make()[0], 0.5 * 1.05), n, 37)
    p = two_sample_pvalues(rejection_statistics[name], wrong)
    assert min(p.values()) < TWO_SAMPLE_P, p


def test_level_counts_and_excursions_match_their_closed_forms():
    """On the 6 x 8 annulus, over 4,000 soups: the loops rooted at v_i are
    Poisson with mean alpha * level_mass[i] per soup, and a loop's number of
    excursions is log-series with parameter r_i, of mean
    r/((r - 1) log(1 - r)).  Each family is pooled into one chi-squared
    statistic over the levels."""
    sampler = LoopSoupSampler(polar_annulus(6, 8)[0], 0.5)
    n, roots, excursions, _, _ = soup_statistics(sampler, 4000, 41)
    live = sampler.return_prob > 0
    loops = np.bincount(roots, minlength=len(live))[live]
    mu = n * sampler.alpha * sampler.level_mass[live]
    assert stats.chi2.sf(np.sum((loops - mu) ** 2 / mu), np.sum(live)) > 1e-3
    r = sampler.return_prob[live]
    log1 = np.log1p(-r)
    mean = r / ((r - 1) * log1)
    var = -r * (r + log1) / ((1 - r) ** 2 * log1 ** 2)
    k = np.bincount(roots, weights=excursions, minlength=len(live))[live]
    seen = loops > 0
    chi2 = np.sum((k - loops * mean)[seen] ** 2 / (loops * var)[seen])
    assert stats.chi2.sf(chi2, np.sum(seen)) > 1e-3
