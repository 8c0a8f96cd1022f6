"""Continuous-time random walk loop soups and isomorphism checks.

Sampling is exact, by vertex elimination in any order (Lawler and Trujillo
Ferreras, "Random walk loop soup", Trans. AMS 2007): here v_0, v_1, ... are
the rows of the network's cached Laplacian factor from the last up, so the
sorted interior on the dense route.  Loops whose first vertex in that order
is v_i live in the network with v_0..v_{i-1} removed (the walk is killed
there, and at the boundary).
Their number is Poisson with mean alpha * (-log(1 - r_i)), where r_i is the
jump chain's return probability to v_i, and each loop concatenates a
logarithmically distributed number of independent excursions from v_i.
Holding times at every visit of x are exponential with rate W(x).

All r_i, and the hitting probabilities that steer each excursion, come from
that factor: eliminating the vertices after v_i leaves the pivot
D_i = W_i (1 - r_i), so -log(1 - r_i) = log(W_i / D_i) and the level masses
add up to loop_mass.
On the dense route every level's h becomes one table of transition CDFs,
m x J floats for J interior jumps, and a jump bisects it; on the banded route
h is one solve per level, and each jump forms its own weights from it.  The
factor, the level masses and the table or jump lists do not depend on alpha:
a network's first sampler builds them, and its later samplers read them.

Jump-free loops never leave one vertex; at x their durations form a Poisson
process with intensity alpha * exp(-W(x) t) dt / t, whose total is a
Gamma(alpha, rate W(x)) variable.  They all have holonomy +1, and every
functional of the soup considered here sees them only through these totals,
so a sample keeps them as one array, jump_free, next to its loops with jumps:
one flat integer path, cut at offsets, whose Loops are formed on first read.

The checks, soup_moments and kl_isomorphism_check, have the estimators'
batch-worker shape: a worker samples its batch's soups one by one, soup s
of batch i from the stream SeedSequence([seed, i, s]), the batch's streams
computed at once by seeds.substreams, and draws the normals of kl's fields
from each soup's stream right after its soup.  It then reduces the soups
at once, one array per soup and none per loop, with one holonomy gather
over all their loops, the holonomy split as a mask over those loops, one
bincount for all their occupation fields, one colouring call per operator
for kl's fields, and sums that add the soups' rows in soup order, to the
bit of a sum taken soup by soup.  A batch of large soups is reduced in a
few consecutive parts, so that a worker holds a few MB.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, pairwise
from typing import Optional, Sequence

import numpy as np

from . import spectral
from .network import ElectricalNetwork, GaugeField, _frozen, cached_on
from .seeds import batch_plan, mean_se, run_batches, substream, substreams


def _equal_fields(a, b) -> bool:
    """== for the dataclasses below: one type, equal fields, arrays compared whole."""
    pairs = ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return type(a) is type(b) and all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
                                      for x, y in pairs)


@dataclass(frozen=True)
class Loop:
    """A loop with jumps as an integer path, rooted at the first visit of its
    minimal vertex: it stays holding_times[k] at interior index skeleton[k],
    then jumps along edges[k], a position in network.interior_edges; the last
    jump closes the loop.  Vertex ids are formed only for output."""

    skeleton: np.ndarray
    edges: np.ndarray
    holding_times: np.ndarray
    __eq__ = _equal_fields


# a soup with no loop with jumps: its skeleton, edges, holding times and ends
_NO_LOOPS = (_frozen([], np.intp), _frozen([], np.intp), _frozen([], float), _frozen([0], np.intp))


@dataclass(frozen=True)
class LoopSoupSample:
    """The loops with two or more visits as one flat path, loop k's Loop fields at
    ends[k]:ends[k + 1] of skeleton, edges and holding_times; and the jump-free
    loops' total time at each interior vertex, in network.interior order."""

    network: ElectricalNetwork
    skeleton: np.ndarray
    edges: np.ndarray
    holding_times: np.ndarray
    ends: np.ndarray
    jump_free: np.ndarray
    alpha: float
    seed: int
    __eq__ = _equal_fields

    @cached_property
    def loops(self) -> tuple[Loop, ...]:
        """One Loop per loop, views of the flat path, formed on first read."""
        return tuple(Loop(self.skeleton[a:b], self.edges[a:b], self.holding_times[a:b])
                     for a, b in pairwise(self.ends.tolist()))


class _SoupElimination:
    """A network's alpha-free elimination data, shared read-only by all its
    LoopSoupSamplers: the jumps, the return probabilities and level masses
    from its cached L, the levels' order, and the transition table or the
    banded jump lists."""

    def __init__(self, network: ElectricalNetwork):
        self.interior = network.interior
        self.w = network.interior_degrees
        self.mean_holding = 1.0 / self.w
        self._lap = spectral.laplacian(network)
        pos = self._lap.factor[1]
        # v_0, v_1, ...: the factor's rows from the last up, sorted when dense
        self.levels = tuple(np.argsort(-pos).tolist())
        # the jumps by source, then by the target's row in the factor, last
        # row first, leaving out the boundary, which kills; jump 2e runs along
        # interior edge e from u to v, 2e + 1 back
        _, u, v, c = network.interior_edges
        self._jump_source = np.stack((u, v), axis=1).ravel()
        jump = np.lexsort((-pos[np.stack((v, u), axis=1).ravel()], self._jump_source))
        src, dst = self._jump_source[jump], self._jump_source[jump ^ 1]  # 2e + 1 reverses 2e
        prob = np.repeat(c, 2)[jump] / self.w[src]  # P(x, y) = C(e) / W(x)
        vertices = np.arange(len(self.interior))
        first, last = np.searchsorted(src, vertices), np.searchsorted(src, vertices, "right") - 1
        # v_i's row of the factor, below its diagonal, has the sum of squares
        # W_i - D_i = W_i r_i: exactly 0.0 with no neighbour in an earlier row,
        # where W_i minus the squared pivot need not be
        self.return_prob = self._lap.below_diagonal_squares() / self.w
        self.level_mass = -np.log1p(-self.return_prob)
        for a in (self.mean_holding, self._jump_source, self.return_prob, self.level_mass):
            a.flags.writeable = False
        spans = list(zip(first.tolist(), last.tolist()))
        if self._lap.factor[2]:  # banded: each source's (target, P, jump), weighed per jump
            out = list(zip(dst.tolist(), prob.tolist(), jump.tolist()))
            self._jumps, self._rows = [out[a:b + 1] for a, b in spans], None
        else:  # dense: each source's slice of the table, and each jump's target, id and slice
            self._spans = spans
            self._hops = [(y, j, *spans[y]) for y, j in zip(dst.tolist(), jump.tolist())]
            self._rows = self._transition_rows(src, dst, prob, first)

    def _transition_rows(self, src, dst, prob, first) -> list[memoryview]:
        """Row i of the m x J table: each source's running sum of P(x, y) h_i(y)
        in the order of its jumps, restarted at each source.  The sums add one rank
        within a source at a time, so each entry rounds as the sum acc += P h
        over the source's jumps would; a cumsum along the row would not."""
        table = self._lap.hitting_probabilities(np.arange(len(self.interior))).T[:, dst]
        table *= prob
        rank = np.arange(len(dst)) - first[src]
        for r in range(1, int(rank.max(initial=0)) + 1):
            k = np.flatnonzero(rank == r)
            table[:, k] += table[:, k - 1]
        table.flags.writeable = False
        return list(map(memoryview, table))


class LoopSoupSampler:
    """Exact soup sampling at one alpha from its network's elimination data,
    which the network's first sampler builds and caches on the network."""

    def __init__(self, network: ElectricalNetwork, alpha: float):
        if not 0.0 < alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        vars(self).update(vars(cached_on(network, "_soup_elimination",
                                         lambda: _SoupElimination(network))))
        self.network = network
        self.alpha = float(alpha)
        self._cum_mass = np.cumsum(self.alpha * np.take(self.level_mass, self.levels)).tolist()

    def sample_with(self, rng: np.random.Generator, seed: int) -> LoopSoupSample:
        """Loops arrive as one unit-rate Poisson process on [0, alpha * loop
        mass), a point's level being the cell of the cumulative level masses,
        in the levels' order, it falls in.  An excursion from v_i jumps from x
        to y with weight P(x, y) h(y), h(y) = P_y(reach v_i before v_0..v_{i-1}
        or the boundary).  Levels and excursion counts are drawn before the
        walks, which leave them be.  Dense, a jump bisects x's slice of level
        i's row of the transition table; banded, x's weights are formed at each
        jump from h, one solve per level."""
        cum_mass, order, gap = self._cum_mass, self.levels, rng.standard_exponential
        levels, t = [], gap()
        while t < cum_mass[-1]:
            levels.append(order[bisect_right(cum_mass, t)])
            t += gap()
        sizes = [int(rng.logseries(self.return_prob[i])) for i in levels]
        # uniforms come from the generator in blocks of 32
        uniforms = chain.from_iterable(iter(lambda: rng.random(32).tolist(), None))
        m, path, ends, level = len(self.interior), [], [0], -1
        # killed targets, later in the factor, come first in each source's
        # jumps and the last one has h > 0, so no rounding of the uniform
        # picks a zero-weight target
        for i, size in zip(levels, sizes):
            x, left = i, size  # left: excursions not yet back at v_i
            if self._rows is None:
                if i != level:
                    level, h = i, memoryview(self._lap.hitting_probabilities(i))
                jumps = self._jumps
                while left:
                    acc, cum, out = 0.0, [], jumps[x]
                    for y, p, _ in out:
                        acc += p * h[y]
                        cum.append(acc)
                    x, _, jump = out[bisect_right(cum, next(uniforms) * acc, 0, len(cum) - 1)]
                    path.append(jump)
                    left -= x == i
            else:
                row, hops, (a, b) = self._rows[i], self._hops, self._spans[i]
                while left:
                    x, jump, a, b = hops[bisect_right(row, next(uniforms) * row[b], a, b)]
                    path.append(jump)
                    left -= x == i
            ends.append(len(path))
        flat = _NO_LOOPS
        if path:  # exponential holding times, one draw for the whole soup
            path = np.array(path)
            skeleton = self._jump_source[path]
            flat = (skeleton, path >> 1, gap(len(path)) * self.mean_holding[skeleton],
                    np.array(ends))
        # Gamma(alpha, rate W) totals: numpy's gamma(alpha, scale) is this product
        jump_free = rng.standard_gamma(self.alpha, m) * self.mean_holding
        return LoopSoupSample(self.network, *flat, jump_free, self.alpha, seed)

    def sample(self, seed: int) -> LoopSoupSample:
        return self.sample_with(substream(seed), seed)

    def occupation_vector(self, soup: LoopSoupSample) -> np.ndarray:
        return _occupations((soup,))[0]


def sample_loop_soup(network: ElectricalNetwork, alpha: float, seed: int) -> LoopSoupSample:
    return LoopSoupSampler(network, alpha).sample(seed)


def _loop_starts(soups: Sequence[LoopSoupSample]) -> np.ndarray:
    """Each loop's first position in the soups' paths concatenated in order."""
    jumps = [len(soup.edges) for soup in soups]
    return (np.concatenate([soup.ends[:-1] for soup in soups])
            + np.repeat(np.cumsum(jumps) - jumps, [len(soup.ends) - 1 for soup in soups]))


def _occupations(soups: Sequence[LoopSoupSample],
                 minus: Optional[np.ndarray] = None) -> np.ndarray:
    """Total time each soup spends at each interior vertex, one row per soup,
    by index: one bincount over soup * width + vertex feeds each bin its
    soup's loop visits in order, then its jump-free total.  Given a mask over
    the soups' loops in order, a row is 2m wide and holds the masked loops'
    visits in its second half, with no jump-free total there."""
    n, m = len(soups), len(soups[0].jump_free)
    width = m if minus is None else 2 * m
    visits = np.concatenate([soup.skeleton for soup in soups])
    times = np.concatenate([soup.holding_times for soup in soups])
    visits += np.repeat(np.arange(0, n * width, width), [len(soup.skeleton) for soup in soups])
    if minus is not None:
        visits += np.repeat(m * minus, np.diff(_loop_starts(soups), append=len(visits)))
    # bincount returns integer zeros, whatever its weights, when no soup has loops
    occ = np.bincount(visits, times, n * width).astype(float, copy=False).reshape(n, width)
    occ[:, :m] += [soup.jump_free for soup in soups]
    return occ


def _holonomies(soups: Sequence[LoopSoupSample], gauge: GaugeField) -> np.ndarray:
    """Each loop's holonomy, soup by soup, the parity of its -1 edges as one
    product of signs over the soups' edges, cut at the loops' starts."""
    edges = np.concatenate([soup.edges for soup in soups])
    return np.multiply.reduceat(gauge.interior_signs[edges], _loop_starts(soups))


def split_by_holonomy(soup: LoopSoupSample,
                      gauge: GaugeField) -> tuple[LoopSoupSample, LoopSoupSample]:
    """Partition into the holonomy +1 and holonomy -1 sub-soups, each keeping
    its loops in order; the jump-free loops all go to the +1 part."""
    if gauge.network != soup.network:
        raise ValueError("soup and gauge field live on different networks")
    lengths = np.diff(soup.ends)
    minus = _holonomies((soup,), gauge) == -1

    def part(loops: np.ndarray, jump_free: np.ndarray) -> LoopSoupSample:
        visits = np.repeat(loops, lengths)
        return LoopSoupSample(soup.network, soup.skeleton[visits], soup.edges[visits],
                              soup.holding_times[visits], np.cumsum([0, *lengths[loops]]),
                              jump_free, soup.alpha, soup.seed)

    return part(~minus, soup.jump_free), part(minus, np.zeros_like(soup.jump_free))


# interior vertices, jumps and held normals, summed over the soups a batch
# worker holds before it reduces them: a batch of pendant-triangle or
# small-annulus soups is reduced at once, a batch of large soups in a few
# parts, so that the soups and their reduction arrays stay a few MB
_REDUCE_BLOCK = 1 << 15


def _soup_sums(sampler: LoopSoupSampler, reduce, width: int, draws: int, n_soups: int,
               seed: int, threads: int, batch_size: int) -> np.ndarray:
    """Sum over the soups in order of each soup's row of width floats, soup s
    of batch i sampled by sampler.sample_with from rng = substream(seed, i, s),
    then `draws` standard normals from that rng.  A worker samples its batch's
    soups one by one, then reduce(total, soups, normals) adds their rows to
    total, one soup after the other, as sum() would, normals holding each
    soup's draws as one row; the batches' sums add up in run_batches, the
    worker shape of the estimators' _cluster_batches."""
    m = len(sampler.interior)

    def worker(bi: int, bn: int) -> np.ndarray:
        total, soups, normals, held = np.zeros(width), [], [], 0
        for s, rng in enumerate(substreams(seed, bi, bn)):
            soup = sampler.sample_with(rng, seed)
            soups.append(soup)
            if draws:
                normals.append(rng.standard_normal(draws))
            held += m + draws + len(soup.skeleton)
            if held >= _REDUCE_BLOCK or s == bn - 1:
                total = reduce(total, soups, np.array(normals).reshape(len(soups), draws))
                soups, normals, held = [], [], 0
        return total

    return run_batches(batch_plan(n_soups, batch_size), worker, threads)


def _power_sums(total: np.ndarray, x: np.ndarray) -> np.ndarray:
    """total plus the rows of x, x ** 2 and x ** 4 side by side, added one
    row after the other from total on, as sum() adds: numpy reduces a 2-d
    array of two or more columns over its rows in row order."""
    k = x.shape[1]
    rows = np.empty((len(x) + 1, 3 * k))
    rows[0], rows[1:, :k] = total, x
    np.square(x, out=rows[1:, k:2 * k])
    np.power(x, 4, out=rows[1:, 2 * k:])
    return np.add.reduce(rows, axis=0)


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
    # L_sigma factored as L is: equal operators' log dets cancel exactly
    count_target = alpha * spectral.loop_mass(network)
    negative_count_target = alpha * spectral.negative_holonomy_mass(network, gauge)
    sampler = LoopSoupSampler(network, alpha)
    m = len(sampler.interior)

    def reduce(total, soups, _) -> np.ndarray:
        # rows x = (loop count, holonomy -1 count, occupation field)
        counts = [len(soup.ends) - 1 for soup in soups]
        minus = _holonomies(soups, gauge) == -1
        x = np.empty((len(soups), m + 2))
        x[:, 0] = counts
        x[:, 1] = np.bincount(np.repeat(np.arange(len(soups)), counts)[minus],
                              minlength=len(soups))
        x[:, 2:] = _occupations(soups)
        return _power_sums(total, x)

    s1, s2, s4 = _soup_sums(sampler, reduce, 3 * (m + 2), 0, n_soups, seed, threads,
                            batch_size).reshape(3, m + 2)
    n = n_soups
    gdiag = spectral.laplacian(network).inverse_diagonal
    mean, se = mean_se(s1, s2, n)
    second, second_se = mean_se(s2, s4, n)
    return SoupMomentsReport(
        vertices=sampler.interior, n_soups=n, alpha=alpha, seed=seed,
        count_mean=float(mean[0]), count_se=float(se[0]),
        count_var=float(max(s2[0] / n - (s1[0] / n) ** 2, 0.0)),
        count_target=count_target,
        occupation_mean=mean[2:], occupation_mean_se=se[2:],
        occupation_mean_target=alpha * gdiag,
        occupation_second=second[2:], occupation_second_se=second_se[2:],
        occupation_second_target=alpha * (1.0 + alpha) * gdiag ** 2,
        negative_count_mean=float(mean[1]), negative_count_se=float(se[1]),
        negative_count_target=negative_count_target,
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

    untwisted, twisted = spectral.laplacian(network), spectral.twisted_laplacian(network, gauge)
    untwisted.inverse_factor, twisted.inverse_factor  # built before the workers, which read them
    sampler = LoopSoupSampler(network, 0.5)
    m = len(sampler.interior)
    # exact decile grid of the untwisted square field per vertex, once for
    # the twisted and once for the untwisted field: P(phi^2 <= t) = erf(sqrt(t / (2 G(x,x))))
    deciles = np.array([2.0 * erfinv(k / 10.0) ** 2 for k in range(1, 10)])
    grids = np.tile(np.outer(untwisted.inverse_diagonal, deciles), (2, 1))  # (2m, 9)

    def reduce(total, soups, normals) -> np.ndarray:
        # rows x = (left, right), then the counts of the twisted and untwisted
        # square fields under their deciles; each soup's 2m normals, drawn
        # from its stream after its soup, colour to its phi_sigma and its phi,
        # each operator colouring the stack of all soups' columns in one call
        x = _occupations(soups, _holonomies(soups, gauge) == -1)
        z = normals.reshape(len(soups), 2, m, 1)
        squares = np.concatenate((twisted.color(z[:, 0]), untwisted.color(z[:, 1])),
                                 axis=1)[:, :, 0] ** 2  # phi_sigma^2, then phi^2
        x[:, m:] += 0.5 * squares[:, :m]
        below = np.column_stack([np.count_nonzero(squares <= g, axis=0) for g in grids.T])
        return np.concatenate((_power_sums(total[:6 * m], x), total[6 * m:] + below.ravel()))

    total = _soup_sums(sampler, reduce, 24 * m, 2 * m, n_soups, seed, threads, batch_size)
    s1, s2, s4 = total[:6 * m].reshape(3, 2 * m)
    n = n_soups
    mean, se = mean_se(s1, s2, n)
    second, second_se = mean_se(s2, s4, n)
    lm, rm = mean[:m], mean[m:]
    mean_diff_se = (lm - rm) / np.sqrt(se[:m] ** 2 + se[m:] ** 2 + 1e-300)
    second_diff_se = ((second[:m] - second[m:])
                      / np.sqrt(second_se[:m] ** 2 + second_se[m:] ** 2 + 1e-300))
    ftw, fun = total[6 * m:].reshape(2, m, 9) / n
    se_cdf = np.sqrt(ftw * (1 - ftw) / n + fun * (1 - fun) / n + 1e-300)
    margin = float(np.min((ftw - fun) / se_cdf))
    return KlCheckReport(sampler.interior, n, seed, lm, rm,
                         mean_diff_se, second_diff_se, margin)


def soup_summary_dict(soup: LoopSoupSample, gauge: Optional[GaugeField] = None) -> dict:
    out = {"alpha": soup.alpha, "seed": soup.seed, "n_loops_multi_vertex": len(soup.ends) - 1,
           "occupation_field": dict(zip(soup.network.interior, _occupations((soup,))[0].tolist()))}
    if gauge is not None:
        plus, minus = split_by_holonomy(soup, gauge)
        out["counts_by_holonomy"] = {"+1": len(plus.ends) - 1, "-1": len(minus.ends) - 1}
    return out


def dump_loops_jsonl(soup: LoopSoupSample, path) -> None:
    """Full loop dump, one JSON object per line (the skeleton's vertex ids,
    formed here, and the holding times); the jump-free totals follow as one
    single-vertex line per interior vertex."""
    ids, visits, held = soup.network.interior, soup.skeleton.tolist(), soup.holding_times.tolist()
    lines = [([ids[j] for j in visits[a:b]], held[a:b]) for a, b in pairwise(soup.ends.tolist())]
    lines += [([v], [t]) for v, t in zip(ids, soup.jump_free.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        for skeleton, times in lines:
            fh.write(json.dumps({"skeleton": skeleton, "holding_times": times}) + "\n")
