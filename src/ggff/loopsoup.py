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
Gamma(alpha, rate W(x)) variable.  Only that aggregate matters for any
functional of the soup considered here, so it is stored as one single-vertex
pseudo-loop per vertex.  (An alternative rate 1/G(x,x) is selectable via
one_point_mode="green"; the occupation-field marginal test singles out the
rate-W convention as the correct one.)
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Mapping, Optional

import numpy as np

from . import spectral
from .network import ElectricalNetwork, GaugeField
from .seeds import batch_plan, run_batches, substream

EXCURSION_ATTEMPT_CAP = 10**6


@dataclass(frozen=True)
class Loop:
    """Rooted at the minimal vertex of the elimination order, first visit."""

    skeleton: tuple[str, ...]
    holding_times: np.ndarray  # one positive duration per skeleton position

    @property
    def is_point(self) -> bool:
        return len(self.skeleton) == 1

    @property
    def duration(self) -> float:
        return float(np.sum(self.holding_times))


@dataclass(frozen=True)
class LoopSoupSample:
    network: ElectricalNetwork
    loops: tuple[Loop, ...]
    alpha: float
    seed: int

    def multi_vertex_count(self) -> int:
        return sum(1 for lp in self.loops if not lp.is_point)


@dataclass(frozen=True)
class OccupationField:
    local_time: Mapping[str, float]


class LoopSoupSampler:
    """Precomputed elimination data for repeated exact soup sampling."""

    def __init__(self, network: ElectricalNetwork, alpha: float,
                 one_point_mode: str = "degree"):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if one_point_mode not in ("degree", "green"):
            raise ValueError("one_point_mode must be 'degree' or 'green'")
        self.network = network
        self.alpha = float(alpha)
        self.one_point_mode = one_point_mode
        self.interior = network.interior
        self.index = {v: i for i, v in enumerate(self.interior)}
        self.w = np.array([network.weighted_degree(v) for v in self.interior])
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
        if one_point_mode == "degree":
            self.one_point_scale = 1.0 / self.w
        else:
            self.one_point_scale = np.diag(spectral.green(network).entries).copy()

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
                times = rng.exponential(scale=1.0 / self.w[np.array(skel_idx)])
                loops.append(Loop(tuple(self.interior[j] for j in skel_idx), times))
        # aggregated jump-free masses: numpy's gamma(alpha, scale) is this product
        jump_free = rng.standard_gamma(self.alpha, len(self.interior)) * self.one_point_scale
        loops.extend(Loop((v,), jump_free[i:i + 1]) for i, v in enumerate(self.interior))
        return LoopSoupSample(self.network, tuple(loops), self.alpha, seed)

    def sample(self, seed: int) -> LoopSoupSample:
        return self.sample_with(substream(seed), seed)

    def occupation_vector(self, soup: LoopSoupSample) -> np.ndarray:
        return _occupation(soup, self.index)


def sample_loop_soup(network: ElectricalNetwork, alpha: float, seed: int,
                     one_point_mode: str = "degree") -> LoopSoupSample:
    return LoopSoupSampler(network, alpha, one_point_mode).sample(seed)


def _occupation(soup: LoopSoupSample, index: Mapping[str, int]) -> np.ndarray:
    """Total time the soup's loops spend at each interior vertex, by index,
    added up visit by visit in loop order (bincount adds in input order)."""
    if not soup.loops:
        return np.zeros(len(index))
    visits = [index[v] for lp in soup.loops for v in lp.skeleton]
    times = np.concatenate([lp.holding_times for lp in soup.loops])
    return np.bincount(visits, weights=times, minlength=len(index))


def occupation_field(soup: LoopSoupSample) -> OccupationField:
    """Total time every loop of the soup spends at each interior vertex."""
    interior = soup.network.interior
    occ = _occupation(soup, {v: i for i, v in enumerate(interior)})
    return OccupationField(dict(zip(interior, occ.tolist())))


def loop_holonomy(gauge: GaugeField, loop: Loop) -> int:
    """Gauge-sign product over the loop's cyclic skeleton; +1 for point loops."""
    skel = loop.skeleton
    if len(skel) == 1:
        return 1
    h = 1
    for a, b in zip(skel, skel[1:] + (skel[0],)):
        h *= gauge.sign(a, b)
    return h


def split_by_holonomy(soup: LoopSoupSample,
                      gauge: GaugeField) -> tuple[LoopSoupSample, LoopSoupSample]:
    """Partition into the holonomy +1 and holonomy -1 sub-soups."""
    if gauge.network != soup.network:
        raise ValueError("soup and gauge field live on different networks")
    plus = tuple(lp for lp in soup.loops if loop_holonomy(gauge, lp) == 1)
    minus = tuple(lp for lp in soup.loops if loop_holonomy(gauge, lp) == -1)
    return (LoopSoupSample(soup.network, plus, soup.alpha, soup.seed),
            LoopSoupSample(soup.network, minus, soup.alpha, soup.seed))


def _mean_se(s1, s2, n: int):
    mean = s1 / n
    var = np.maximum(s2 / n - mean * mean, 0.0)
    return mean, np.sqrt(var / n)


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
    negative_count_mean: Optional[float] = None
    negative_count_se: Optional[float] = None
    negative_count_target: Optional[float] = None


def soup_moments(network: ElectricalNetwork, alpha: float, n_soups: int, seed: int,
                 gauge: Optional[GaugeField] = None, threads: int = 1,
                 batch_size: int = 256) -> SoupMomentsReport:
    """Multi-vertex loop counts and occupation-field moments over many soups.

    Count target: alpha * loop_mass (the count is Poisson with that mean).
    Occupation targets per vertex: mean alpha*G(x,x) and second moment
    alpha*(1+alpha)*G(x,x)^2, the occupation marginal being Gamma(alpha) with
    scale G(x,x).  With a gauge field, the holonomy -1 loop count (Poisson
    with mean alpha * negative_holonomy_mass) is included as well.
    """
    sampler = LoopSoupSampler(network, alpha)
    m = len(sampler.interior)

    def worker(bi: int, bn: int):
        c1 = c2 = n1 = n2 = 0.0
        o1 = np.zeros(m)
        o2 = np.zeros(m)
        o4 = np.zeros(m)
        for s in range(bn):
            soup = sampler.sample_with(substream(seed, bi, s), seed)
            cnt = soup.multi_vertex_count()
            c1 += cnt
            c2 += cnt * cnt
            if gauge is not None:
                neg = sum(1 for lp in soup.loops if loop_holonomy(gauge, lp) == -1)
                n1 += neg
                n2 += neg * neg
            occ = sampler.occupation_vector(soup)
            o1 += occ
            o2 += occ ** 2
            o4 += occ ** 4
        return c1, c2, n1, n2, o1, o2, o4

    parts = run_batches(batch_plan(n_soups, batch_size), worker, threads)
    c1, c2, n1, n2 = (sum(p[i] for p in parts) for i in range(4))
    o1 = sum(p[4] for p in parts)
    o2 = sum(p[5] for p in parts)
    o4 = sum(p[6] for p in parts)
    n = n_soups
    gdiag = np.diag(spectral.green(network).entries)
    count_mean, count_se = _mean_se(c1, c2, n)
    occ_mean, occ_mean_se = _mean_se(o1, o2, n)
    occ_second, occ_second_se = _mean_se(o2, o4, n)
    report = SoupMomentsReport(
        vertices=sampler.interior, n_soups=n, alpha=alpha, seed=seed,
        count_mean=float(count_mean), count_se=float(count_se),
        count_var=float(max(c2 / n - (c1 / n) ** 2, 0.0)),
        count_target=alpha * spectral.loop_mass(network),
        occupation_mean=occ_mean, occupation_mean_se=occ_mean_se,
        occupation_mean_target=alpha * gdiag,
        occupation_second=occ_second, occupation_second_se=occ_second_se,
        occupation_second_target=alpha * (1.0 + alpha) * gdiag ** 2,
    )
    if gauge is not None:
        neg_mean, neg_se = _mean_se(n1, n2, n)
        report = replace(report,
                         negative_count_mean=float(neg_mean),
                         negative_count_se=float(neg_se),
                         negative_count_target=alpha * spectral.negative_holonomy_mass(network, gauge))
    return report


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

    def worker(bi: int, bn: int):
        l1 = np.zeros(m)
        l2 = np.zeros(m)
        l4 = np.zeros(m)
        r1 = np.zeros(m)
        r2 = np.zeros(m)
        r4 = np.zeros(m)
        cdf_tw = np.zeros((m, 9))
        cdf_un = np.zeros((m, 9))
        for s in range(bn):
            rng = substream(seed, bi, s)
            soup = sampler.sample_with(rng, seed)
            plus, minus = split_by_holonomy(soup, gauge)
            occ_p = sampler.occupation_vector(plus)
            occ_m = sampler.occupation_vector(minus)
            phi_s = chol_s @ rng.standard_normal(m)
            phi_u = chol_u @ rng.standard_normal(m)
            right = 0.5 * phi_s ** 2 + occ_m
            l1 += occ_p
            l2 += occ_p ** 2
            l4 += occ_p ** 4
            r1 += right
            r2 += right ** 2
            r4 += right ** 4
            cdf_tw += phi_s[:, None] ** 2 <= grids
            cdf_un += phi_u[:, None] ** 2 <= grids
        return l1, l2, l4, r1, r2, r4, cdf_tw, cdf_un

    parts = run_batches(batch_plan(n_soups, batch_size), worker, threads)
    l1, l2, l4, r1, r2, r4, cdf_tw, cdf_un = (sum(p[i] for p in parts) for i in range(8))
    n = n_soups
    lm, lm_se = _mean_se(l1, l2, n)
    rm, rm_se = _mean_se(r1, r2, n)
    mean_diff_se = (lm - rm) / np.sqrt(lm_se ** 2 + rm_se ** 2 + 1e-300)
    l2m, l2_se = _mean_se(l2, l4, n)
    r2m, r2_se = _mean_se(r2, r4, n)
    second_diff_se = (l2m - r2m) / np.sqrt(l2_se ** 2 + r2_se ** 2 + 1e-300)
    ftw = cdf_tw / n
    fun = cdf_un / n
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
        counts = {1: 0, -1: 0}
        for lp in soup.loops:
            if not lp.is_point:
                counts[loop_holonomy(gauge, lp)] += 1
        out["counts_by_holonomy"] = {"+1": counts[1], "-1": counts[-1]}
    return out


def dump_loops_jsonl(soup: LoopSoupSample, path) -> None:
    """Full loop dump, one JSON object per line (skeleton and holding times)."""
    with open(path, "w", encoding="utf-8") as fh:
        for lp in soup.loops:
            fh.write(json.dumps({"skeleton": list(lp.skeleton),
                                 "holding_times": [float(t) for t in lp.holding_times]}))
            fh.write("\n")
