"""Gaussian free field samplers, sign-cluster topology, and estimators.

The discrete field is sampled exactly from its Laplacian's Cholesky factor.
The continuum sign-cluster structure of the interpolated field is sampled
without discretization error: conditionally on the vertex values, the field
along an edge is an independent standard Brownian bridge of duration 1/C(e),
so the edge is free of zeros with probability

    1 - exp(-2 C(e) phi(u) phi(v))      (same-sign endpoints)

and surely has a zero between opposite signs.  Everything the topological
event can see at vertex resolution is which edges are zero-free, so the event
is simulated exactly from these Bernoulli marks.

The topological event holds when every open component is balanced for the
gauge field: it admits vertex signs making every open edge's sign product +1,
equivalently contains no open cycle of holonomy -1, equivalently has a
disconnected preimage in the double cover.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Optional

import numpy as np

from . import spectral
from .cover import _balanced, _cover_labels, _cover_pattern, _label_sign, build_double_cover
from .network import EdgeKey, ElectricalNetwork, GaugeField
from .seeds import DEFAULT_BATCH, batch_plan, mean_se, run_batches, substream


@dataclass(frozen=True)
class EstimatorReport:
    estimate: float
    std_error: float
    n_samples: int
    n_accepted: int
    seed: int
    target: Optional[float] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


# (edge, sample) pairs per row block of _open_marks, which bounds its float
# temporaries to four such blocks whatever the batch
_OPEN_BLOCK = 1 << 16


def _open_marks(phi: np.ndarray, edge_u: np.ndarray, edge_v: np.ndarray,
                edge_c: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Zero-free marks of the interior edges for each sample column of phi:
    edge i is open with probability open_probability(edge_c[i], a, b) at its
    ends' values a, b, from one uniform per edge and column in row order.  A
    zero end, a sign change or a product a*b that underflows closes the edge.
    Edges are taken in row blocks; each float64 uniform is one draw from the
    stream, so the blocks' draws are the one-shot (E, n) draw's."""
    e, n = len(edge_u), phi.shape[1]
    marks = np.empty((e, n), dtype=bool)
    rows = max(1, _OPEN_BLOCK // max(n, 1))
    ab, u = np.empty((2, min(rows, e), n))
    for r0 in range(0, e, rows):
        k = min(e, r0 + rows) - r0
        x = np.multiply(phi[edge_u[r0:r0 + k]], phi[edge_v[r0:r0 + k]], out=ab[:k])
        rng.random(out=u[:k])
        # where ab > 0, ab is |ab| and -expm1(-2 C ab) is in [0, 1); elsewhere it
        # is at most -0.0, which no u in [0, 1) falls below, so one comparison decides
        np.multiply(-2.0 * edge_c[r0:r0 + k, None], x, out=x)
        with np.errstate(over="ignore"):  # exp of -2 C ab overflows only where ab < 0
            np.expm1(x, out=x)
        np.less(u[:k], np.negative(x, out=x), out=marks[r0:r0 + k])
    return marks


def _fields(lap: spectral.LaplacianMatrix, rng: np.random.Generator, n: int) -> np.ndarray:
    """n samples of covariance G = lap^-1 as columns.  On the dense route,
    where lap's factor C is taken in reversed order J, lap.color applies
    J C^-T J, the lower Cholesky factor of G, so for the same draws z the
    samples are chol(G) @ z up to rounding; banded, it applies the same in
    reverse Cuthill-McKee order."""
    return lap.color(rng.standard_normal((len(lap.interior_order), n)))


def _cluster_batches(network: ElectricalNetwork, rel: np.ndarray, reduce, n_samples: int,
                     seed: int, threads: int, batch_size: int):
    """The run_batches total of reduce(phi, lab) over batches of _fields of
    L = laplacian(network) and the _cover_labels of their open subgraphs, the
    interior edges carrying the signs rel."""
    lap, plan = spectral.laplacian(network), batch_plan(n_samples, batch_size)
    lap.inverse_factor  # built before the workers, which only read it and the pattern
    _, u, v, c = network.interior_edges
    pattern = _cover_pattern(len(network.interior), u, v, rel, plan[0][1])

    def worker(bi: int, bn: int):
        rng = substream(seed, bi)
        phi = _fields(lap, rng, bn)
        return reduce(phi, _cover_labels(pattern, _open_marks(phi, u, v, c, rng)))

    return run_batches(plan, worker, threads)


def sample_cover_gff_batch(network: ElectricalNetwork, gauge: GaugeField,
                           seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n cover-field samples projected onto the sheet sum and difference.

    Returns (plus, minus) arrays of shape (interior count, n) in interior
    order, each scaled by 1/sqrt(2); column j of plus has the untwisted law,
    of minus the twisted law, and the two are independent.  The cover is
    build_double_cover's, cached on gauge.
    """
    cov = build_double_cover(network, gauge)
    phi = _fields(spectral.laplacian(cov.cover_network), substream(seed), n)
    i1, i2 = cov.interior_lifts
    inv = 1.0 / math.sqrt(2.0)
    return inv * (phi[i1] + phi[i2]), inv * (phi[i1] - phi[i2])


def open_probability(conductance: float, a: float, b: float) -> float:
    """Probability that the edge interpolation between values a and b has no zero."""
    if a == 0.0 or b == 0.0 or np.sign(a) != np.sign(b):
        return 0.0
    return float(-np.expm1(-2.0 * conductance * abs(a * b)))


def estimate_event_probability(network: ElectricalNetwork, gauge: GaugeField,
                               n_samples: int, seed: int, threads: int = 1,
                               batch_size: int = DEFAULT_BATCH) -> EstimatorReport:
    """Monte Carlo probability that a field sample's sign clusters are all
    balanced; the closed-form target sqrt(det G_sigma / det G) is attached."""
    if gauge.network != network:  # refused before the draws, which run without L_sigma
        raise ValueError("gauge field belongs to a different network")
    hits = _cluster_batches(network, gauge.interior_signs,
                            lambda phi, lab: int(_balanced(lab).sum()),
                            n_samples, seed, threads, batch_size)
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return EstimatorReport(p, se, n_samples, hits, seed, target=spectral.det_ratio(network, gauge))


def _interior_pair(network: ElectricalNetwork, pair: tuple[str, str],
                   message: str) -> tuple[int, int]:
    """The positions of pair's two vertices in network.interior, else ValueError(message)."""
    x, y = pair
    idx = network.interior_index
    if x not in idx or y not in idx:
        raise ValueError(message)
    return idx[x], idx[y]


def conditional_moment(network: ElectricalNetwork, gauge: GaugeField,
                       pair: tuple[str, str], n_samples: int, seed: int,
                       threads: int = 1,
                       batch_size: int = DEFAULT_BATCH) -> EstimatorReport:
    """Estimate E[tau(x) phi(x) tau(y) phi(y)] over samples in the event,
    tau being the canonical recoloring; the target is G_sigma(x,y)."""
    ix, iy = _interior_pair(network, pair,
                            "conditional moments are defined at interior vertices")
    target = spectral.restricted_green(network, pair, gauge).value(*pair)

    def moments(phi: np.ndarray, lab: np.ndarray) -> np.ndarray:
        tau = _label_sign(lab[:, [ix, iy], 0])
        g = (tau[:, 0] * phi[ix] * tau[:, 1] * phi[iy])[_balanced(lab)]
        # sums run left to right from 0.0, in sample order: np.sum would
        # pair terms and move the estimate's last bits
        return np.array([np.cumsum(np.append(0.0, g))[-1],
                         np.cumsum(np.append(0.0, g * g))[-1], len(g)])

    s1, s2, accepted = _cluster_batches(network, gauge.interior_signs, moments,
                                        n_samples, seed, threads, batch_size)
    acc = int(accepted)
    if acc == 0:
        raise RuntimeError("conditioning event never occurred")
    mean, se = mean_se(s1, s2, acc)
    return EstimatorReport(float(mean), float(se), n_samples, acc, seed, target=target)


def two_point_connectivity(network: ElectricalNetwork, pair: tuple[str, str],
                           n_samples: int, seed: int, threads: int = 1,
                           batch_size: int = DEFAULT_BATCH) -> EstimatorReport:
    """Probability that two interior vertices share a sign cluster; the target
    is (2/pi) arcsin(G(x,y)/sqrt(G(x,x)G(y,y)))."""
    ix, iy = _interior_pair(network, pair, "connectivity is defined at interior vertices")
    hits = _cluster_batches(network, np.ones(len(network.interior_edges[0]), dtype=np.intp),
                            lambda phi, lab: int((lab[:, ix, 0] == lab[:, iy, 0]).sum()),
                            n_samples, seed, threads, batch_size)
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    g = spectral.laplacian(network).inverse(np.array([ix, iy]))
    target = (2.0 / math.pi) * math.asin(g[0, 1] / math.sqrt(g[0, 0] * g[1, 1]))
    return EstimatorReport(p, se, n_samples, hits, seed, target=target)


@dataclass(frozen=True)
class EdgeFieldSamples:
    positions: np.ndarray          # distances from the smaller endpoint, in (0, L)
    values: np.ndarray
    middle_limits: Optional[tuple[float, float]]  # (limit from below, from above)


@dataclass(frozen=True)
class MetricFieldGrid:
    vertex_values: Mapping[str, float]
    edges: Mapping[EdgeKey, EdgeFieldSamples]


def sample_metric_field(network: ElectricalNetwork, gauge: GaugeField,
                        grid_points_per_edge: int, seed: int) -> MetricFieldGrid:
    """Twisted field on a per-edge grid: vertex sample plus independent
    standard Brownian bridges, with the sign reflected past the middle of
    every -1 edge.  Both one-sided middle limits are recorded there; they are
    exact negatives, so the absolute field is continuous.

    Positions are measured from the smaller endpoint; with N-1 grid points the
    restriction to the implied subdivision vertices has the law of the twisted
    field on the N-fold subdivided network.
    """
    if grid_points_per_edge < 2:
        raise ValueError("need at least 2 grid points per edge")
    rng = substream(seed)
    phi = _fields(spectral.twisted_laplacian(network, gauge), rng, 1)[:, 0]
    vertex_values = dict(zip(network.interior, map(float, phi)))

    def val(v: str) -> float:
        return vertex_values.get(v, 0.0)

    edges: dict[EdgeKey, EdgeFieldSamples] = {}
    for k in network.sorted_edge_keys:
        c = network.edge_map[k].conductance
        length = 1.0 / c
        p_lo, p_hi = val(k[0]), val(k[1])  # field at u=0 and u=L
        sign = gauge.signs[k]
        grid = np.arange(1, grid_points_per_edge + 1) * (length / (grid_points_per_edge + 1))
        mid = 0.5 * length
        times = sorted(set(grid.tolist()) | ({mid} if sign == -1 else set()))
        # standard Brownian bridge 0 -> 0 of duration `length`, sequentially,
        # plus the line from phi at the smaller endpoint to sign * phi at the
        # larger; past the middle of a -1 edge it is reflected
        below, t_prev, w_prev = {}, 0.0, 0.0
        for t in times:
            rem = length - t_prev
            mean = w_prev * (length - t) / rem
            var = (t - t_prev) * (length - t) / rem
            w_prev = mean + math.sqrt(max(var, 0.0)) * rng.standard_normal()
            below[t] = w_prev + c * (sign * t * p_hi + (length - t) * p_lo)
            t_prev = t
        values = np.array([-below[u] if sign == -1 and u > mid else below[u] for u in grid])
        edges[k] = EdgeFieldSamples(grid, values,
                                    (below[mid], -below[mid]) if sign == -1 else None)
    return MetricFieldGrid(vertex_values, edges)
