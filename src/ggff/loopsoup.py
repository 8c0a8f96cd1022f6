"""Continuous-time random walk loop soups and isomorphism checks.

Sampling is exact, by vertex elimination over the sorted interior order.
Loops whose minimal vertex is v_i live in the network with all smaller
interior vertices removed (the walk is killed there, and at the boundary).
Their number is Poisson with mean alpha * (-log(1 - r_i)), where r_i is the
jump chain's return probability to v_i, and each loop concatenates a
logarithmically distributed number of independent excursions from v_i.
Holding times at every visit of x are exponential with rate W(x).

All r_i come from one Cholesky factor of the Laplacian in reversed interior
order: eliminating the vertices after v_i leaves the pivot D_i = W_i (1 - r_i),
so -log(1 - r_i) = log(W_i / D_i) and the level masses add up to loop_mass
(Lawler and Trujillo Ferreras, "Random walk loop soup", Trans. AMS 2007).

Jump-free loops never leave one vertex; at x their durations form a Poisson
process with intensity alpha * exp(-W(x) t) dt / t, whose total is a
Gamma(alpha, rate W(x)) variable.  They all have holonomy +1, and every
functional of the soup considered here sees them only through these totals,
so a sample keeps them as one array, jump_free, next to its loops with jumps.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import spectral
from .network import ElectricalNetwork, GaugeField
from .seeds import batch_plan, mean_se, run_batches, substream

EXCURSION_ATTEMPT_CAP = 10**6


@dataclass(frozen=True)
class Loop:
    """A loop with jumps, rooted at the first visit of its minimal vertex."""

    skeleton: tuple[str, ...]
    holding_times: np.ndarray  # one positive duration per skeleton position


@dataclass(frozen=True)
class LoopSoupSample:
    """The loops with two or more visits, and the jump-free loops' total time
    at each interior vertex, in network.interior order."""

    network: ElectricalNetwork
    loops: tuple[Loop, ...]
    jump_free: np.ndarray
    alpha: float
    seed: int

    def multi_vertex_count(self) -> int:
        return len(self.loops)


@dataclass(frozen=True)
class OccupationField:
    local_time: Mapping[str, float]


class LoopSoupSampler:
    """Precomputed elimination data for repeated exact soup sampling."""

    def __init__(self, network: ElectricalNetwork, alpha: float):
        if not 0.0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        self.network = network
        self.alpha = float(alpha)
        self.interior = network.interior
        self.index = {v: i for i, v in enumerate(self.interior)}
        self.w = np.array([network.weighted_degree(v) for v in self.interior])
        self.mean_holding = 1.0 / self.w
        # static jump tables as Python lists, walked by bisect: interior target
        # index, or -1 for a boundary jump, and the cumulative jump
        # probabilities but the last, so that a uniform at or past the rounded
        # total still picks the last neighbour
        self.jump_targets: list[list[int]] = []
        self.jump_cum: list[list[float]] = []
        for v in self.interior:
            nbrs = network.adjacency[v]
            self.jump_targets.append([self.index.get(w, -1) for w, _ in nbrs])
            probs = np.array([c for _, c in nbrs]) / self.w[self.index[v]]
            self.jump_cum.append(np.cumsum(probs)[:-1].tolist())
        # row i of the reversed-order factor, below its diagonal, has the sum
        # of squares W_i - D_i = W_i r_i: exactly 0.0 with no later neighbour,
        # where W_i minus the squared pivot need not be
        lap = spectral.laplacian(network, order=self.interior[::-1])
        below = np.tril(lap.factor[0], -1)
        self.return_prob = (np.einsum("ij,ij->i", below, below) / self.w[::-1])[::-1]
        self.level_mass = -np.log1p(-self.return_prob)

    def _excursion(self, i: int, rng: np.random.Generator) -> list[int]:
        """One jump-chain excursion v_i -> v_i avoiding killed vertices, by
        rejection (acceptance probability is the return probability)."""
        targets, cums, uniform = self.jump_targets, self.jump_cum, rng.random
        for _ in range(EXCURSION_ATTEMPT_CAP):
            path = [i]
            v = i
            while True:
                code = targets[v][bisect_right(cums[v], uniform())]
                if code < i:
                    break  # killed (boundary jumps are -1); reject this attempt
                path.append(code)
                if code == i:
                    return path
                v = code
        raise RuntimeError(f"excursion sampling exceeded {EXCURSION_ATTEMPT_CAP} attempts")

    def sample_with(self, rng: np.random.Generator, seed: int) -> LoopSoupSample:
        loops: list[Loop] = []
        means = (self.alpha * self.level_mass).tolist()
        for i, r in enumerate(self.return_prob.tolist()):
            if r <= 0.0:
                continue
            for _ in range(rng.poisson(means[i])):
                k = int(rng.logseries(r))
                skel_idx = [i]
                for _ in range(k):
                    skel_idx.extend(self._excursion(i, rng)[1:])
                skel_idx.pop()  # cyclic representation: final return is implicit
                times = rng.exponential(scale=self.mean_holding[skel_idx])
                loops.append(Loop(tuple(self.interior[j] for j in skel_idx), times))
        # Gamma(alpha, rate W) totals: numpy's gamma(alpha, scale) is this product
        jump_free = rng.standard_gamma(self.alpha, len(self.interior)) * self.mean_holding
        return LoopSoupSample(self.network, tuple(loops), jump_free, self.alpha, seed)

    def sample(self, seed: int) -> LoopSoupSample:
        return self.sample_with(substream(seed), seed)

    def occupation_vector(self, soup: LoopSoupSample) -> np.ndarray:
        return _occupation(soup, self.index)


def sample_loop_soup(network: ElectricalNetwork, alpha: float, seed: int) -> LoopSoupSample:
    return LoopSoupSampler(network, alpha).sample(seed)


def _occupation(soup: LoopSoupSample, index: Mapping[str, int]) -> np.ndarray:
    """Total time the soup spends at each interior vertex, by index: bincount
    adds the loops' visits in order, then the jump-free totals."""
    visits = [index[v] for lp in soup.loops for v in lp.skeleton]
    visits.extend(range(len(index)))
    times = np.concatenate([lp.holding_times for lp in soup.loops] + [soup.jump_free])
    return np.bincount(visits, weights=times)


def occupation_field(soup: LoopSoupSample) -> OccupationField:
    """Total time every loop of the soup spends at each interior vertex."""
    interior = soup.network.interior
    occ = _occupation(soup, {v: i for i, v in enumerate(interior)})
    return OccupationField(dict(zip(interior, occ.tolist())))


def loop_holonomy(gauge: GaugeField, loop: Loop) -> int:
    """Gauge-sign product over the loop's cyclic skeleton."""
    skel = loop.skeleton
    h = 1
    for a, b in zip(skel, skel[1:] + (skel[0],)):
        h *= gauge.sign(a, b)
    return h


def split_by_holonomy(soup: LoopSoupSample,
                      gauge: GaugeField) -> tuple[LoopSoupSample, LoopSoupSample]:
    """Partition into the holonomy +1 and holonomy -1 sub-soups; the jump-free
    loops all go to the +1 part."""
    if gauge.network != soup.network:
        raise ValueError("soup and gauge field live on different networks")
    signs = [loop_holonomy(gauge, lp) for lp in soup.loops]
    plus = tuple(lp for lp, h in zip(soup.loops, signs) if h == 1)
    minus = tuple(lp for lp, h in zip(soup.loops, signs) if h == -1)
    return (LoopSoupSample(soup.network, plus, soup.jump_free, soup.alpha, soup.seed),
            LoopSoupSample(soup.network, minus, np.zeros_like(soup.jump_free),
                           soup.alpha, soup.seed))


@dataclass(frozen=True)
class SoupMomentsReport:
    """Empirical soup statistics against their closed-form targets."""

    vertices: tuple[str, ...]
    n_soups: int
    alpha: float
    seed: int
    count_mean: float
    count_se: float
    count_var: float
    count_target: float
    occupation_mean: np.ndarray
    occupation_mean_se: np.ndarray
    occupation_mean_target: np.ndarray
    occupation_second: np.ndarray
    occupation_second_se: np.ndarray
    occupation_second_target: np.ndarray
    negative_count_mean: float
    negative_count_se: float
    negative_count_target: float


def soup_moments(network: ElectricalNetwork, alpha: float, n_soups: int, seed: int,
                 gauge: GaugeField, threads: int = 1,
                 batch_size: int = 256) -> SoupMomentsReport:
    """Multi-vertex and holonomy -1 loop counts and occupation-field moments
    over many soups.

    Count targets: alpha * loop_mass and alpha * negative_holonomy_mass (each
    count is Poisson with that mean).  Occupation targets per vertex: mean
    alpha*G(x,x) and second moment alpha*(1+alpha)*G(x,x)^2, the occupation
    marginal being Gamma(alpha) with scale G(x,x).
    """
    sampler = LoopSoupSampler(network, alpha)
    m = len(sampler.interior)

    def worker(bi: int, bn: int) -> np.ndarray:
        # per soup, x = (loop count, holonomy -1 count, occupation field)
        sums = np.zeros((3, m + 2))
        for s in range(bn):
            soup = sampler.sample_with(substream(seed, bi, s), seed)
            neg = sum(1 for lp in soup.loops if loop_holonomy(gauge, lp) == -1)
            x = np.concatenate(([soup.multi_vertex_count(), neg],
                                sampler.occupation_vector(soup)))
            sums += (x, x ** 2, x ** 4)
        return sums

    s1, s2, s4 = sum(run_batches(batch_plan(n_soups, batch_size), worker, threads))
    n = n_soups
    gdiag = np.diag(spectral.green(network).entries)
    mean, se = mean_se(s1, s2, n)
    second, second_se = mean_se(s2, s4, n)
    return SoupMomentsReport(
        vertices=sampler.interior, n_soups=n, alpha=alpha, seed=seed,
        count_mean=float(mean[0]), count_se=float(se[0]),
        count_var=float(max(s2[0] / n - (s1[0] / n) ** 2, 0.0)),
        count_target=alpha * spectral.loop_mass(network),
        occupation_mean=mean[2:], occupation_mean_se=se[2:],
        occupation_mean_target=alpha * gdiag,
        occupation_second=second[2:], occupation_second_se=second_se[2:],
        occupation_second_target=alpha * (1.0 + alpha) * gdiag ** 2,
        negative_count_mean=float(mean[1]), negative_count_se=float(se[1]),
        negative_count_target=alpha * spectral.negative_holonomy_mass(network, gauge),
    )


@dataclass(frozen=True)
class KlCheckReport:
    """Moment comparison of the two sides of the split-soup isomorphism.

    left(x) = occupation of the holonomy +1 soup at x;
    right(x) = phi_sigma(x)^2/2 + occupation of an independent holonomy -1
    soup.  Discrepancies come in standard-error units; domination_margin_se is
    the worst decile margin of the stochastic domination of the twisted square
    field by the untwisted one (negative values beyond noise would refute it).
    """

    vertices: tuple[str, ...]
    n_soups: int
    seed: int
    left_mean: np.ndarray
    right_mean: np.ndarray
    mean_diff_se: np.ndarray
    second_diff_se: np.ndarray
    domination_margin_se: float


def kl_isomorphism_check(network: ElectricalNetwork, gauge: GaugeField,
                         n_soups: int, seed: int, threads: int = 1,
                         batch_size: int = 256) -> KlCheckReport:
    """Compare first and second moments of both sides of the isomorphism at
    alpha = 1/2, with an independent twisted field on the right side."""
    from scipy.special import erfinv

    sampler = LoopSoupSampler(network, 0.5)
    m = len(sampler.interior)
    g = spectral.green(network)
    gs = spectral.twisted_green(network, gauge)
    chol_s = np.linalg.cholesky(gs.entries)
    chol_u = np.linalg.cholesky(g.entries)
    # exact decile grid of the untwisted square field per vertex:
    # P(phi^2 <= t) = erf(sqrt(t / (2 G(x,x))))
    deciles = np.array([2.0 * erfinv(k / 10.0) ** 2 for k in range(1, 10)])
    grids = np.outer(np.diag(g.entries), deciles)  # (m, 9)

    def worker(bi: int, bn: int) -> tuple[np.ndarray, np.ndarray]:
        # per soup, x = (left, right); decile counts of the twisted and the
        # untwisted square field
        sums = np.zeros((3, 2 * m))
        cdf = np.zeros((2, m, 9))
        for s in range(bn):
            rng = substream(seed, bi, s)
            soup = sampler.sample_with(rng, seed)
            plus, minus = split_by_holonomy(soup, gauge)
            occ_p = sampler.occupation_vector(plus)
            occ_m = sampler.occupation_vector(minus)
            phi_s = chol_s @ rng.standard_normal(m)
            phi_u = chol_u @ rng.standard_normal(m)
            x = np.concatenate((occ_p, 0.5 * phi_s ** 2 + occ_m))
            sums += (x, x ** 2, x ** 4)
            cdf[0] += phi_s[:, None] ** 2 <= grids
            cdf[1] += phi_u[:, None] ** 2 <= grids
        return sums, cdf

    parts = run_batches(batch_plan(n_soups, batch_size), worker, threads)
    s1, s2, s4 = sum(p[0] for p in parts)
    n = n_soups
    mean, se = mean_se(s1, s2, n)
    second, second_se = mean_se(s2, s4, n)
    lm, rm = mean[:m], mean[m:]
    mean_diff_se = (lm - rm) / np.sqrt(se[:m] ** 2 + se[m:] ** 2 + 1e-300)
    second_diff_se = ((second[:m] - second[m:])
                      / np.sqrt(second_se[:m] ** 2 + second_se[m:] ** 2 + 1e-300))
    ftw, fun = sum(p[1] for p in parts) / n
    se_cdf = np.sqrt(ftw * (1 - ftw) / n + fun * (1 - fun) / n + 1e-300)
    margin = float(np.min((ftw - fun) / se_cdf))
    return KlCheckReport(sampler.interior, n, seed, lm, rm,
                         mean_diff_se, second_diff_se, margin)


def soup_summary_dict(soup: LoopSoupSample, gauge: Optional[GaugeField] = None) -> dict:
    occ = occupation_field(soup)
    out = {
        "alpha": soup.alpha,
        "seed": soup.seed,
        "n_loops_multi_vertex": soup.multi_vertex_count(),
        "occupation_field": {v: occ.local_time[v] for v in soup.network.interior},
    }
    if gauge is not None:
        plus, minus = split_by_holonomy(soup, gauge)
        out["counts_by_holonomy"] = {"+1": len(plus.loops), "-1": len(minus.loops)}
    return out


def dump_loops_jsonl(soup: LoopSoupSample, path) -> None:
    """Full loop dump, one JSON object per line (skeleton and holding times);
    the jump-free totals follow as one single-vertex line per interior vertex."""
    lines = [(list(lp.skeleton), lp.holding_times.tolist()) for lp in soup.loops]
    lines += [([v], [t]) for v, t in zip(soup.network.interior, soup.jump_free.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        for skeleton, times in lines:
            fh.write(json.dumps({"skeleton": skeleton, "holding_times": times}) + "\n")
