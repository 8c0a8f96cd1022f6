"""Gaussian free field samplers, sign-cluster topology, and estimators.

The discrete field is sampled exactly through a Cholesky factor of its Green
matrix.  The continuum sign-cluster structure of the interpolated field is
sampled without discretization error: conditionally on the vertex values, the
field along an edge is an independent standard Brownian bridge of duration
1/C(e), so the edge is free of zeros with probability

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
from .cover import build_double_cover
from .network import EdgeKey, ElectricalNetwork, GaugeField, edge_key
from .seeds import DEFAULT_BATCH, batch_plan, mean_se, run_batches, substream


@dataclass(frozen=True)
class GffSample:
    """One field sample: interior values; boundary is implicitly zero."""

    network: ElectricalNetwork
    values: Mapping[str, float]
    kind: str  # "untwisted" | "twisted" | "cover"
    seed: tuple[int, ...]

    def value(self, v: str) -> float:
        if v in self.network.boundary:
            return 0.0
        return self.values[v]


@dataclass(frozen=True)
class ClusterConfiguration:
    """Vertex signs plus zero-free (open) edge marks of one field sample."""

    network: ElectricalNetwork
    vertex_sign: Mapping[str, int]       # interior vertex -> -1 | 0 | +1
    edge_open: Mapping[EdgeKey, bool]    # every edge; boundary-incident are closed
    components: tuple[frozenset[str], ...]  # open same-sign connectivity classes


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


class _ParityUnionFind:
    """Union-find whose nodes carry a sign relative to their root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.sign = [1] * n          # sign of node relative to its parent chain

    def find(self, v: int) -> tuple[int, int]:
        """Root of v's class and the sign of v relative to that root."""
        start = v
        path = []
        while self.parent[v] != v:
            path.append(v)
            v = self.parent[v]
        s = 1
        for u in reversed(path):  # nearest-to-root first, so signs accumulate
            s *= self.sign[u]
            self.parent[u] = v
            self.sign[u] = s
        return v, (self.sign[start] if start != v else 1)

    def union(self, u: int, v: int, rel: int) -> bool:
        """Join with constraint sign(u)*sign(v) = rel; False if contradictory."""
        ru, su = self.find(u)
        rv, sv = self.find(v)
        if ru == rv:
            return su * sv == rel
        # sign of rv relative to ru so that su * (sv * srv) = rel;
        # it is symmetric in the two roots, so rank swapping keeps it
        srv = rel * su * sv
        if self.rank[ru] < self.rank[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.sign[rv] = srv
        if self.rank[ru] == self.rank[rv]:
            self.rank[ru] += 1
        return True


# Bounds the graph one connected_components call sees, and so the memory a
# batch's labelling takes at once.
_COVER_NODES_PER_CALL = 1 << 16


def _cover_labels(m: int, edge_u: np.ndarray, edge_v: np.ndarray, rel: np.ndarray,
                  opened: np.ndarray) -> np.ndarray:
    """Component labels of the double covers of the open subgraphs, one per
    column of opened (interior edge i joins edge_u[i], edge_v[i], sign rel[i]).

    Cover node (s, v, sheet) is numbered 2*(s*m + v) + sheet: an open +1 edge
    joins the same-sheet lifts of its ends, an open -1 edge the cross lifts.
    Returns lab of shape (n, m, 2), lab[s, v, sheet] being the smallest node
    number in the component of (s, v, sheet).  Hence, in column s:
    - the open clusters are balanced iff no v has lab[s, v, 0] == lab[s, v, 1];
    - x and y share a cluster iff lab[s, x, 0] is lab[s, y, 0] or lab[s, y, 1]
      (with all signs +1, iff lab[s, x, 0] == lab[s, y, 0]);
    - in the event, the canonical recolouring tau(v) is +1 iff lab[s, v, 0] is
      even: that component holds one lift of each vertex of v's cluster, and
      its smallest node lifts the cluster's smallest vertex.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    n = opened.shape[1]
    per_call = max(1, _COVER_NODES_PER_CALL // max(2 * m, 1))
    cross = (rel == -1).astype(np.intp)
    lab = np.empty(2 * m * n, dtype=np.intp)
    for s0 in range(0, n, per_call):
        s1 = min(n, s0 + per_call)
        size = 2 * m * (s1 - s0)
        e, s = np.nonzero(opened[:, s0:s1])
        a = 2 * (m * s + edge_u[e])
        b = 2 * (m * s + edge_v[e]) + cross[e]
        rows = np.concatenate((a, a + 1))
        cols = np.concatenate((b, b ^ 1))
        count, part = connected_components(
            coo_array((np.ones(len(rows)), (rows, cols)), shape=(size, size)),
            directed=True, connection="weak")
        low = np.full(count, size, dtype=np.intp)
        np.minimum.at(low, part, np.arange(size))
        lab[2 * m * s0:2 * m * s1] = low[part] + 2 * m * s0
    return lab.reshape(n, m, 2)


def _balanced(lab: np.ndarray) -> np.ndarray:
    """Per sample of _cover_labels: whether every open cluster is balanced."""
    return (lab[:, :, 0] != lab[:, :, 1]).all(axis=1)


def _configuration_labels(network: ElectricalNetwork, edge_open: Mapping[EdgeKey, bool],
                          signs: Optional[Mapping[EdgeKey, int]] = None) -> np.ndarray:
    """_cover_labels of one configuration, shape (1, m, 2); all signs +1 when
    none are given."""
    idx = network.interior_index()
    keys = [k for k, o in edge_open.items() if o]
    u = np.array([idx[k[0]] for k in keys], dtype=np.intp)
    v = np.array([idx[k[1]] for k in keys], dtype=np.intp)
    rel = np.array([1 if signs is None else signs[k] for k in keys], dtype=np.intp)
    return _cover_labels(len(idx), u, v, rel, np.ones((len(keys), 1), dtype=bool))


def _interior_edges(network: ElectricalNetwork) -> list[EdgeKey]:
    ints = set(network.interior)
    return [k for k in network.sorted_edge_keys if k[0] in ints and k[1] in ints]


class _FieldEngine:
    """Cached factorizations and edge arrays for fast batched sampling."""

    def __init__(self, network: ElectricalNetwork, gauge: Optional[GaugeField] = None):
        self.network = network
        self.interior = network.interior
        self.index = {v: i for i, v in enumerate(self.interior)}
        g = spectral.green(network) if gauge is None else spectral.twisted_green(network, gauge)
        self.green = g
        self.chol = np.linalg.cholesky(g.entries) if len(self.interior) else np.zeros((0, 0))
        self.int_edges = _interior_edges(network)
        self.edge_u = np.array([self.index[k[0]] for k in self.int_edges], dtype=np.intp)
        self.edge_v = np.array([self.index[k[1]] for k in self.int_edges], dtype=np.intp)
        self.edge_c = np.array([network.edge_map[k].conductance for k in self.int_edges])

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n field samples as columns, in interior order."""
        z = rng.standard_normal((len(self.interior), n))
        return self.chol @ z

    def open_block(self, phi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Zero-free edge marks for each sample column of phi."""
        a = phi[self.edge_u, :]
        b = phi[self.edge_v, :]
        u = rng.random((len(self.int_edges), phi.shape[1]))
        same = (np.sign(a) == np.sign(b)) & (a != 0) & (b != 0)
        return same & (u < -np.expm1(-2.0 * self.edge_c[:, None] * np.abs(a * b)))

    def edge_signs(self, gauge: Optional[GaugeField] = None) -> np.ndarray:
        """The interior edges' gauge signs; all +1 without a gauge."""
        if gauge is None:
            return np.ones(len(self.int_edges), dtype=np.intp)
        return np.array([gauge.signs[k] for k in self.int_edges], dtype=np.intp)

    def cluster_block(self, rng: np.random.Generator, n: int,
                      rel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """n field samples and the _cover_labels of their open subgraphs,
        the interior edges carrying the signs rel."""
        phi = self.sample_block(rng, n)
        opened = self.open_block(phi, rng)
        return phi, _cover_labels(len(self.interior), self.edge_u, self.edge_v, rel, opened)


def sample_gff(network: ElectricalNetwork, seed: int) -> GffSample:
    """Exact mean-zero Gaussian sample with covariance the Green matrix."""
    eng = _FieldEngine(network)
    phi = eng.sample_block(substream(seed), 1)[:, 0]
    return GffSample(network, dict(zip(eng.interior, map(float, phi))),
                     "untwisted", (seed,))


def sample_twisted_gff(network: ElectricalNetwork, gauge: GaugeField, seed: int) -> GffSample:
    """Exact sample with covariance the twisted Green matrix."""
    eng = _FieldEngine(network, gauge)
    phi = eng.sample_block(substream(seed), 1)[:, 0]
    return GffSample(network, dict(zip(eng.interior, map(float, phi))),
                     "twisted", (seed,))


def _sample_cover_block(network: ElectricalNetwork, gauge: GaugeField, seed: int, n: int):
    """n cover-field samples as columns, in cover interior order, with their
    sheet sums and differences over the base interior, each scaled by 1/sqrt(2).

    Returns (cover, cover interior order, cover samples, plus, minus).
    """
    cov = build_double_cover(network, gauge)
    g = spectral.cover_green(cov)
    chol = np.linalg.cholesky(g.entries)
    phi = chol @ substream(seed).standard_normal((len(g.interior_order), n))
    idx = {v: i for i, v in enumerate(g.interior_order)}
    i1 = np.array([idx[cov.lift(x, 1)] for x in network.interior], dtype=np.intp)
    i2 = np.array([idx[cov.lift(x, 2)] for x in network.interior], dtype=np.intp)
    inv = 1.0 / math.sqrt(2.0)
    return (cov, g.interior_order, phi,
            inv * (phi[i1] + phi[i2]), inv * (phi[i1] - phi[i2]))


def sample_cover_gff_and_project(network: ElectricalNetwork, gauge: GaugeField,
                                 seed: int) -> tuple[GffSample, GffSample, GffSample]:
    """Sample the field on the double cover and split into the two sheets' sum
    and difference over the sheet-1 fundamental domain.

    The sum (scaled by 1/sqrt(2)) has the untwisted law, the difference the
    twisted law, and the two projections are independent.
    """
    cov, order, phi, plus, minus = _sample_cover_block(network, gauge, seed, 1)

    def values(vertices, column):
        return dict(zip(vertices, map(float, column[:, 0])))

    return (GffSample(cov.cover_network, values(order, phi), "cover", (seed,)),
            GffSample(network, values(network.interior, plus), "untwisted", (seed,)),
            GffSample(network, values(network.interior, minus), "twisted", (seed,)))


def sample_cover_gff_batch(network: ElectricalNetwork, gauge: GaugeField,
                           seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n cover-field samples projected onto the sheet sum and difference.

    Returns (plus, minus) arrays of shape (interior count, n) in interior
    order; column j of plus has the untwisted law, of minus the twisted law,
    and the two are independent.  sample_cover_gff_and_project is its n = 1
    case.
    """
    return _sample_cover_block(network, gauge, seed, n)[3:]


def open_probability(conductance: float, a: float, b: float) -> float:
    """Probability that the edge interpolation between values a and b has no zero."""
    if a == 0.0 or b == 0.0 or np.sign(a) != np.sign(b):
        return 0.0
    return float(-np.expm1(-2.0 * conductance * abs(a * b)))


def sample_cluster_configuration(gff: GffSample, network: ElectricalNetwork,
                                 seed: int) -> ClusterConfiguration:
    """Open each same-sign interior edge independently with the exact
    zero-free-bridge probability; everything else stays closed."""
    if gff.network != network:
        raise ValueError("field sample belongs to a different network")
    if gff.kind != "untwisted":
        raise ValueError("cluster sampling expects an untwisted field sample")
    rng = substream(seed)
    int_edges = _interior_edges(network)
    draws = rng.random(len(int_edges))
    edge_open: dict[EdgeKey, bool] = {k: False for k in network.sorted_edge_keys}
    for k, u in zip(int_edges, draws):
        p = open_probability(network.edge_map[k].conductance,
                             gff.values[k[0]], gff.values[k[1]])
        edge_open[k] = bool(u < p)
    signs = {v: int(np.sign(gff.values[v])) for v in network.interior}
    return _finish_configuration(network, signs, edge_open)


def make_cluster_configuration(network: ElectricalNetwork,
                               vertex_sign: Mapping[str, int],
                               edge_open: Mapping[EdgeKey, bool]) -> ClusterConfiguration:
    """Assemble a configuration from explicit marks, computing components.

    Enforces the structural invariant: an edge may be open only when both
    endpoints are interior with equal nonzero signs.
    """
    ints = set(network.interior)
    signs = {v: int(vertex_sign.get(v, 0)) for v in network.interior}
    full_open = {k: bool(edge_open.get(k, False)) for k in network.sorted_edge_keys}
    for k, o in full_open.items():
        if not o:
            continue
        u, v = k
        if u not in ints or v not in ints:
            raise ValueError(f"open edge {k} touches the boundary")
        if signs[u] == 0 or signs[u] != signs[v]:
            raise ValueError(f"open edge {k} lacks equal nonzero endpoint signs")
    return _finish_configuration(network, signs, full_open)


def _finish_configuration(network: ElectricalNetwork, signs: dict[str, int],
                          edge_open: dict[EdgeKey, bool]) -> ClusterConfiguration:
    # labels are smallest members, so sorting them sorts by smallest vertex
    groups: dict[int, list[str]] = {}
    for v, label in zip(network.interior, _configuration_labels(network, edge_open)[0, :, 0]):
        groups.setdefault(label, []).append(v)
    components = tuple(frozenset(g) for _, g in sorted(groups.items()))
    return ClusterConfiguration(network, signs, edge_open, components)


def detect_event(config: ClusterConfiguration, gauge: GaugeField,
                 method: str = "parity") -> bool:
    """True when every open component is balanced for the gauge field.

    method "parity": union-find with signs; "cover": labels the double-cover
    components of the open subgraph and looks for a vertex whose two lifts
    share one; "cycles": checks every fundamental cycle of a spanning forest
    of the open subgraph.
    """
    if gauge.network != config.network:
        raise ValueError("configuration and gauge field live on different networks")
    net = config.network
    open_edges = [k for k, o in config.edge_open.items() if o]
    if method == "parity":
        idx = net.interior_index()
        uf = _ParityUnionFind(len(net.interior))
        for u, v in open_edges:
            if not uf.union(idx[u], idx[v], gauge.signs[(u, v)]):
                return False
        return True
    if method == "cover":
        return bool(_balanced(_configuration_labels(net, config.edge_open, gauge.signs))[0])
    if method == "cycles":
        return _detect_via_cycles(net, gauge, open_edges)
    raise ValueError(f"unknown method {method!r}")


def _detect_via_cycles(net: ElectricalNetwork, gauge: GaugeField,
                       open_edges: list[EdgeKey]) -> bool:
    """Spanning-forest route: some fundamental cycle has holonomy -1 iff the
    component has any -1 cycle at all (holonomy is linear over the cycle space)."""
    verts = sorted({v for k in open_edges for v in k})
    adj: dict[str, list[str]] = {v: [] for v in verts}
    for u, v in open_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[str, Optional[str]] = {}
    depth: dict[str, int] = {}
    tree: set[EdgeKey] = set()
    for r in verts:
        if r in parent:
            continue
        parent[r] = None
        depth[r] = 0
        stack = [r]
        while stack:
            w = stack.pop()
            for x in sorted(adj[w]):
                if x not in parent:
                    parent[x] = w
                    depth[x] = depth[w] + 1
                    tree.add(edge_key(w, x))
                    stack.append(x)
    for u, v in open_edges:
        if (u, v) in tree:
            continue
        h = gauge.signs[(u, v)]
        a, b = u, v
        while depth[a] > depth[b]:
            h *= gauge.sign(a, parent[a])
            a = parent[a]
        while depth[b] > depth[a]:
            h *= gauge.sign(b, parent[b])
            b = parent[b]
        while a != b:
            h *= gauge.sign(a, parent[a]) * gauge.sign(b, parent[b])
            a, b = parent[a], parent[b]
        if h == -1:
            return False
    return True


def sign_flip_transform(config: ClusterConfiguration, gauge: GaugeField) -> dict[str, int]:
    """Canonical component recoloring factor tau for a configuration in the event.

    tau satisfies tau(u)*sigma(u,v)*tau(v) = 1 on every open edge; within each
    open component the smallest-id vertex keeps its sign (tau = +1 there), and
    components touching no open -1 edge are left unchanged.  Multiplying the
    field by tau realizes the conditioned twisted field's sign structure.
    """
    if gauge.network != config.network:
        raise ValueError("configuration and gauge field live on different networks")
    lab = _configuration_labels(config.network, config.edge_open, gauge.signs)
    if not _balanced(lab)[0]:
        raise ValueError("configuration is not in the topological event; "
                         "no harmonious coloring exists")
    return {v: 1 - 2 * int(label % 2) for v, label in zip(config.network.interior, lab[0, :, 0])}


def estimate_event_probability(network: ElectricalNetwork, gauge: GaugeField,
                               n_samples: int, seed: int, threads: int = 1,
                               batch_size: int = DEFAULT_BATCH) -> EstimatorReport:
    """Monte Carlo probability that a field sample's sign clusters are all
    balanced; the closed-form target sqrt(det G_sigma / det G) is attached."""
    eng = _FieldEngine(network)
    rel = eng.edge_signs(gauge)

    def worker(bi: int, bn: int) -> int:
        _, lab = eng.cluster_block(substream(seed, bi), bn, rel)
        return int(_balanced(lab).sum())

    totals = run_batches(batch_plan(n_samples, batch_size), worker, threads)
    hits = int(sum(totals))
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    return EstimatorReport(p, se, n_samples, hits, seed,
                           target=spectral.det_ratio(network, gauge))


def conditional_moment(network: ElectricalNetwork, gauge: GaugeField,
                       pair: tuple[str, str], n_samples: int, seed: int,
                       threads: int = 1,
                       batch_size: int = DEFAULT_BATCH) -> EstimatorReport:
    """Estimate E[tau(x) phi(x) tau(y) phi(y)] over samples in the event,
    tau being the canonical recoloring; the target is G_sigma(x,y)."""
    x, y = pair
    ints = set(network.interior)
    if x not in ints or y not in ints:
        raise ValueError("conditional moments are defined at interior vertices")
    eng = _FieldEngine(network)
    rel = eng.edge_signs(gauge)
    ix, iy = eng.index[x], eng.index[y]

    def worker(bi: int, bn: int) -> tuple[float, float, int]:
        phi, lab = eng.cluster_block(substream(seed, bi), bn, rel)
        tau = 1 - 2 * (lab[:, [ix, iy], 0] % 2)
        g = (tau[:, 0] * phi[ix] * tau[:, 1] * phi[iy])[_balanced(lab)]
        # sums run left to right from 0.0, in sample order: np.sum would
        # pair terms and move the estimate's last bits
        return (np.cumsum(np.append(0.0, g))[-1], np.cumsum(np.append(0.0, g * g))[-1],
                len(g))

    parts = run_batches(batch_plan(n_samples, batch_size), worker, threads)
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    acc = sum(p[2] for p in parts)
    if acc == 0:
        raise RuntimeError("conditioning event never occurred")
    mean, se = mean_se(s1, s2, acc)
    target = spectral.twisted_green(network, gauge).value(x, y)
    return EstimatorReport(float(mean), float(se), n_samples, acc, seed, target=target)


def two_point_connectivity(network: ElectricalNetwork, pair: tuple[str, str],
                           n_samples: int, seed: int, threads: int = 1,
                           batch_size: int = DEFAULT_BATCH) -> EstimatorReport:
    """Probability that two interior vertices share a sign cluster; the target
    is (2/pi) arcsin(G(x,y)/sqrt(G(x,x)G(y,y)))."""
    x, y = pair
    ints = set(network.interior)
    if x not in ints or y not in ints:
        raise ValueError("connectivity is defined at interior vertices")
    eng = _FieldEngine(network)
    rel = eng.edge_signs()
    ix, iy = eng.index[x], eng.index[y]

    def worker(bi: int, bn: int) -> int:
        _, lab = eng.cluster_block(substream(seed, bi), bn, rel)
        return int((lab[:, ix, 0] == lab[:, iy, 0]).sum())

    totals = run_batches(batch_plan(n_samples, batch_size), worker, threads)
    hits = int(sum(totals))
    p = hits / n_samples
    se = math.sqrt(p * (1.0 - p) / n_samples)
    g = eng.green
    target = (2.0 / math.pi) * math.asin(
        g.value(x, y) / math.sqrt(g.value(x, x) * g.value(y, y)))
    return EstimatorReport(p, se, n_samples, hits, seed, target=target)


@dataclass(frozen=True)
class EdgeFieldSamples:
    positions: np.ndarray          # distances from the smaller endpoint, in (0, L)
    values: np.ndarray
    middle_limits: Optional[tuple[float, float]]  # (limit from below, from above)


@dataclass(frozen=True)
class MetricFieldGrid:
    network: ElectricalNetwork
    gauge: GaugeField
    vertex_values: Mapping[str, float]
    edges: Mapping[EdgeKey, EdgeFieldSamples]
    seed: int


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
    if gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
    rng = substream(seed)
    eng = _FieldEngine(network, gauge)
    phi = eng.sample_block(rng, 1)[:, 0]
    vertex_values = {v: float(phi[eng.index[v]]) for v in network.interior}

    def val(v: str) -> float:
        return vertex_values.get(v, 0.0)

    edges: dict[EdgeKey, EdgeFieldSamples] = {}
    for k in network.sorted_edge_keys:
        e = network.edge_map[k]
        c = e.conductance
        length = 1.0 / c
        p_lo, p_hi = val(k[0]), val(k[1])  # field at u=0 and u=L
        sign = gauge.signs[k]
        grid = np.arange(1, grid_points_per_edge + 1) * (length / (grid_points_per_edge + 1))
        mid = 0.5 * length
        times = sorted(set(grid.tolist()) | ({mid} if sign == -1 else set()))
        # standard Brownian bridge 0 -> 0 of duration `length`, sequentially
        w = {}
        t_prev, w_prev = 0.0, 0.0
        for t in times:
            rem = length - t_prev
            mean = w_prev * (length - t) / rem
            var = (t - t_prev) * (length - t) / rem
            w_prev = mean + math.sqrt(max(var, 0.0)) * rng.standard_normal()
            w[t] = w_prev
            t_prev = t
        if sign == 1:
            values = np.array([w[u] + c * (u * p_hi + (length - u) * p_lo) for u in grid])
            edges[k] = EdgeFieldSamples(grid, values, None)
        else:
            # bridge from phi at the smaller endpoint to -phi at the larger,
            # reflected on the second half
            def below(u: float) -> float:
                return w[u] + c * (-u * p_hi + (length - u) * p_lo)

            def above(u: float) -> float:
                return -w[u] + c * (u * p_hi - (length - u) * p_lo)

            values = np.array([below(u) if u < mid else (above(u) if u > mid else below(u))
                               for u in grid])
            limits = (float(below(mid)), float(above(mid)))
            edges[k] = EdgeFieldSamples(grid, values, limits)
    return MetricFieldGrid(network, gauge, vertex_values, edges, seed)
