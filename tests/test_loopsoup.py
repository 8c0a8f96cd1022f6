import json
import math
from pathlib import Path

import numpy as np
import pytest

import ggff
from ggff import (GaugeField, VertexSigns, apply_gauge_transform, green,
                  kl_isomorphism_check, loop_holonomy, loop_mass, occupation_field,
                  sample_loop_soup, soup_moments, split_by_holonomy,
                  negative_holonomy_mass)
from ggff import load_network, spectral
from ggff.loopsoup import Loop, LoopSoupSampler, dump_loops_jsonl, soup_summary_dict

from conftest import polar_annulus, random_network

SOUP_GOLDEN = Path(__file__).resolve().parent / "golden" / "soups"
NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def test_sampler_determinism(pt_net):
    s1 = sample_loop_soup(pt_net, 0.5, seed=1)
    s2 = sample_loop_soup(pt_net, 0.5, seed=1)
    assert [lp.skeleton for lp in s1.loops] == [lp.skeleton for lp in s2.loops]
    assert all(np.array_equal(a.holding_times, b.holding_times)
               for a, b in zip(s1.loops, s2.loops))
    assert np.array_equal(s1.jump_free, s2.jump_free)


def test_return_probabilities_pt(pt_net):
    sampler = LoopSoupSampler(pt_net, 0.5)
    # elimination order x < y < z: from x every non-boundary jump returns;
    # from y (x removed) only y->z->y survives; z (x,y removed) has nothing
    assert sampler.return_prob[0] == pytest.approx(2 / 3, abs=1e-12)
    assert sampler.return_prob[1] == pytest.approx(1 / 4, abs=1e-12)
    assert sampler.return_prob[2] == pytest.approx(0.0, abs=1e-12)
    assert float(np.sum(sampler.level_mass)) == pytest.approx(loop_mass(pt_net), abs=1e-12)


def solved_return_probabilities(net) -> np.ndarray:
    """The reference r_i, one dense linear solve per vertex: h_j is the chance
    that the jump chain from v_j reaches v_i before the boundary or any
    interior vertex below v_i, and r_i averages h over the first jump."""
    order = net.interior
    index = {v: i for i, v in enumerate(order)}
    m = len(order)
    out = np.zeros(m)
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
        h = np.linalg.solve(a, b) if pos else np.zeros(0)
        for w, c in net.adjacency[order[i]]:
            code = index.get(w, -1)
            if code in pos:
                out[i] += c / net.weighted_degree(order[i]) * h[pos[code]]
    return out


def elimination_test_networks():
    rng = np.random.default_rng(21)
    nets = [random_network(rng)[0] for _ in range(33)]
    return nets + [polar_annulus(6, 8)[0]]


def test_pivot_return_probabilities_match_linear_solves():
    for net in elimination_test_networks():
        sampler = LoopSoupSampler(net, 0.5)
        ref = solved_return_probabilities(net)
        assert np.max(np.abs(sampler.return_prob - ref)) <= 1e-12


def test_no_later_interior_neighbour_gives_exactly_zero(pt_net):
    """Such a vertex roots no multi-vertex loop; its r_i must be 0.0 exactly,
    not a rounding residue, so that sample_with skips it."""
    seen = 0
    for net in [pt_net] + elimination_test_networks():
        sampler = LoopSoupSampler(net, 0.5)
        for i, v in enumerate(net.interior):
            if all(sampler.index.get(w, -1) <= i for w, _ in net.adjacency[v]):
                assert sampler.return_prob[i] == 0.0
                assert sampler.level_mass[i] == 0.0
                seen += 1
            else:
                assert sampler.return_prob[i] > 0.0
    assert seen >= 34  # at least the last vertex of every network


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
    LoopSoupSampler(net, 0.5)
    assert calls == {"cho_factor": 2, "cholesky": 0, "solve": 0}


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


def test_elimination_mass_matches_loop_mass_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        net, _ = random_network(rng, max_interior=8)
        sampler = LoopSoupSampler(net, 1.0)
        assert float(np.sum(sampler.level_mass)) == pytest.approx(loop_mass(net), abs=1e-10)


def test_loops_respect_interior_adjacency(pt_net):
    ints = set(pt_net.interior)
    for seed in range(50):
        soup = sample_loop_soup(pt_net, 0.7, seed=seed)
        assert soup.jump_free.shape == (len(ints),) and np.all(soup.jump_free > 0)
        for lp in soup.loops:
            assert set(lp.skeleton) <= ints and len(lp.skeleton) >= 2
            assert np.all(lp.holding_times > 0)
            cyc = lp.skeleton + (lp.skeleton[0],)
            for a, b in zip(cyc, cyc[1:]):
                assert pt_net.has_edge(a, b)
            assert lp.skeleton[0] == min(lp.skeleton)  # rooted at minimum


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
    empty = sum(sample_loop_soup(pt_net, alpha, seed=s).multi_vertex_count() == 0
                for s in range(n))
    p = math.exp(-lam)
    assert abs(empty / n - p) <= 4 * math.sqrt(p * (1 - p) / n) + 1e-12


def test_occupation_field_empty_and_sums(pt):
    """Both occupation views equal the visit-by-visit loop, followed by the
    jump-free totals, to the bit, on the whole soup and on its holonomy -1
    part."""
    annulus, annulus_gauge = polar_annulus(6, 8)
    for net, gauge in (pt, (annulus, annulus_gauge)):
        sampler = LoopSoupSampler(net, 0.5)
        for seed in range(5):
            for soup in (sampler.sample(seed), split_by_holonomy(sampler.sample(seed), gauge)[1]):
                manual = {v: 0.0 for v in net.interior}
                for lp in soup.loops:
                    for v, t in zip(lp.skeleton, lp.holding_times):
                        manual[v] += float(t)
                for v, t in zip(net.interior, soup.jump_free):
                    manual[v] += float(t)
                assert occupation_field(soup).local_time == manual
                assert sampler.occupation_vector(soup).tolist() == list(manual.values())
    empty = ggff.LoopSoupSample(pt[0], (), np.zeros(3), 0.5, 0)
    assert all(t == 0.0 for t in occupation_field(empty).local_time.values())


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
    for seed in range(30):
        soup = sample_loop_soup(net, 0.5, seed=seed)
        plus, minus = split_by_holonomy(soup, gauge)
        assert len(plus.loops) + len(minus.loops) == len(soup.loops)
        assert all(loop_holonomy(gauge, lp) == 1 for lp in plus.loops)
        assert all(loop_holonomy(gauge, lp) == -1 for lp in minus.loops)
        assert plus.jump_free is soup.jump_free and not np.any(minus.jump_free)
        occ = occupation_field(soup).local_time
        op = occupation_field(plus).local_time
        om = occupation_field(minus).local_time
        for v in net.interior:
            assert occ[v] == pytest.approx(op[v] + om[v], abs=1e-12)


def test_split_by_holonomy_walks_each_loop_once(monkeypatch):
    """One holonomy evaluation per loop with jumps, and still a partition, on
    the 6 x 8 annulus, whose cut makes loops around the hole negative."""
    net, gauge = polar_annulus(6, 8)
    calls = []

    def counted(g, lp):
        calls.append(lp)
        return loop_holonomy(g, lp)

    monkeypatch.setattr(ggff.loopsoup, "loop_holonomy", counted)
    sampler = LoopSoupSampler(net, 2.0)
    negatives = 0
    for seed in range(10):
        soup = sampler.sample(seed)
        calls.clear()
        plus, minus = split_by_holonomy(soup, gauge)
        assert list(map(id, calls)) == list(map(id, soup.loops))
        assert sorted(map(id, plus.loops + minus.loops)) == sorted(map(id, soup.loops))
        assert all(loop_holonomy(gauge, lp) == 1 for lp in plus.loops)
        assert all(loop_holonomy(gauge, lp) == -1 for lp in minus.loops)
        whole = sampler.occupation_vector(soup)
        parts = sampler.occupation_vector(plus) + sampler.occupation_vector(minus)
        assert np.allclose(parts, whole, rtol=1e-12, atol=0.0)
        negatives += len(minus.loops)
    assert negatives > 0


def test_split_trivial_gauge_negative_empty(pt_net):
    gauge = GaugeField.all_plus(pt_net)
    soup = sample_loop_soup(pt_net, 0.5, seed=8)
    _, minus = split_by_holonomy(soup, gauge)
    assert minus.loops == ()


def test_crafted_skeleton_even_traversals_positive(pt):
    net, gauge = pt
    lp = Loop(("x", "y", "z", "x", "z", "y"), np.ones(6))  # crosses yz twice
    assert loop_holonomy(gauge, lp) == 1
    lp2 = Loop(("y", "z"), np.ones(2))  # out-and-back over the -1 edge
    assert loop_holonomy(gauge, lp2) == 1
    lp3 = Loop(("x", "y", "z"), np.ones(3))  # the triangle
    assert loop_holonomy(gauge, lp3) == -1


def test_holonomy_classification_gauge_invariant():
    rng = np.random.default_rng(6)
    net, gauge = random_network(rng, max_interior=6)
    vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1) for v in net.vertices})
    transformed = apply_gauge_transform(vs, gauge)
    for seed in range(20):
        soup = sample_loop_soup(net, 0.6, seed=seed)
        for lp in soup.loops:
            assert loop_holonomy(gauge, lp) == loop_holonomy(transformed, lp)


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
    assert summary["n_loops_multi_vertex"] == soup.multi_vertex_count()
    assert set(summary["occupation_field"]) == set(net.interior)
    assert summary["counts_by_holonomy"]["+1"] + summary["counts_by_holonomy"]["-1"] \
        == soup.multi_vertex_count()
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


@pytest.mark.parametrize("network, seed", [("pt", 10), ("annulus-6x8", 11)])
def test_soup_dump_and_summary_match_golden(tmp_path, network, seed):
    """The loop dump and the summary of one soup at alpha 1/2 keep every byte
    of tests/golden/soups/, which an earlier version of the sampler recorded."""
    net, gauge = load_network(NETWORKS / f"{network}.json")
    soup = sample_loop_soup(net, 0.5, seed=seed)
    dump_loops_jsonl(soup, tmp_path / "loops.jsonl")
    summary = json.dumps(soup_summary_dict(soup, gauge), indent=2) + "\n"
    stem = SOUP_GOLDEN / f"{network}-seed{seed}"
    assert (tmp_path / "loops.jsonl").read_bytes() == stem.with_suffix(".jsonl").read_bytes()
    assert summary == stem.with_name(stem.name + "-summary.json").read_text()
