import dataclasses
import json
import math
from bisect import bisect_right
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from ggff import Edge, ElectricalNetwork, GaugeField, edge_key, spectral
from ggff.cover import _cover_labels, _cover_pattern, cover_vertex_id
from ggff.loopsoup import LoopSoupSample, LoopSoupSampler

NETWORKS = Path(__file__).resolve().parent.parent / "networks"


def pendant_triangle() -> tuple[ElectricalNetwork, GaugeField]:
    """Boundary b hanging off a triangle x,y,z; unit conductances; sigma(yz)=-1."""
    net = ElectricalNetwork(
        vertices=("b", "x", "y", "z"),
        boundary=frozenset({"b"}),
        edges=(Edge("bx", "b", "x", 1.0), Edge("xy", "x", "y", 1.0),
               Edge("yz", "y", "z", 1.0), Edge("zx", "z", "x", 1.0)),
        name="PT")
    return net, GaugeField.with_minus_edges(net, [("y", "z")])


def cover_maps(net: ElectricalNetwork) -> tuple[dict, dict, dict]:
    """(projection, deck, sheet) on the cover vertices, read off the ids
    cover_vertex_id gives the two lifts of each base vertex."""
    projection, deck, sheet = {}, {}, {}
    for v in net.vertices:
        one, two = cover_vertex_id(v, 1), cover_vertex_id(v, 2)
        projection[one] = projection[two] = v
        deck[one], deck[two] = two, one
        sheet[one], sheet[two] = 1, 2
    return projection, deck, sheet


def path_holonomy(gauge: GaugeField, *vertices: str) -> int:
    """The product of the gauge's signs along consecutive vertex ids; +1 for one vertex."""
    return math.prod(gauge.sign(a, b) for a, b in zip(vertices, vertices[1:]))


def cover_labels(m: int, edge_u, edge_v, rel, opened: np.ndarray) -> np.ndarray:
    """_cover_labels of the opened columns, its pattern built for all of them."""
    return _cover_labels(_cover_pattern(m, edge_u, edge_v, rel, opened.shape[1]), opened)


def factor_orders(monkeypatch, name: str) -> list[int]:
    """Replace scipy.linalg.<name>, as ggff.spectral calls it, by a wrapper
    that records the order of every matrix it factors; returns that record."""
    real = getattr(spectral.sla, name)
    orders: list[int] = []

    def recording(a, *args, **kwargs):
        orders.append(a.shape[-1])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(spectral.sla, name, recording)
    return orders


@pytest.fixture
def pt():
    return pendant_triangle()


@pytest.fixture
def pt_net(pt):
    return pt[0]


@pytest.fixture
def pt_gauge(pt):
    return pt[1]


def polar_annulus(rings: int, sites: int) -> tuple[ElectricalNetwork, GaugeField]:
    """rings x sites interior vertices between a Dirichlet inner and outer ring.

    Radial edges join the same site on neighbouring rings, angular edges
    neighbouring sites on one interior ring; unit conductances.  The angular
    edges from site sites-1 to site 0 carry sigma = -1, so a loop has holonomy
    -1 exactly when it winds around the hole an odd number of times.  Ring
    and site numbers are padded to the width of their largest value, at least
    2, so that sorted ids run in lattice order, ring by ring.
    """
    wr, ws = max(2, len(str(rings + 1))), max(2, len(str(sites - 1)))

    def vid(r: int, s: int) -> str:
        return f"r{r:0{wr}d}s{s:0{ws}d}"

    vertices = tuple(vid(r, s) for r in range(rings + 2) for s in range(sites))
    boundary = frozenset(vid(r, s) for r in (0, rings + 1) for s in range(sites))
    edges = [Edge(f"rad{r}-{s}", vid(r, s), vid(r + 1, s), 1.0)
             for r in range(rings + 1) for s in range(sites)]
    edges += [Edge(f"ang{r}-{s}", vid(r, s), vid(r, (s + 1) % sites), 1.0)
              for r in range(1, rings + 1) for s in range(sites)]
    net = ElectricalNetwork(vertices=vertices, boundary=boundary, edges=tuple(edges),
                            name=f"annulus-{rings}x{sites}")
    cut = [(vid(r, sites - 1), vid(r, 0)) for r in range(1, rings + 1)]
    return net, GaugeField.with_minus_edges(net, cut)


def holed_grid(size: int = 16, hole: int = 6) -> tuple[ElectricalNetwork, GaugeField]:
    """size x size interior grid with a centred hole x hole Dirichlet hole.

    The boundary is the outer ring without corners and the hole's rim; unit
    conductances.  sigma = -1 on the edges that cross the middle row from the
    hole to the outer ring, so a sign cluster winding around the hole breaks
    the event; at 16 x 16 with a 6 x 6 hole, P(T) = 1 - 4.1e-8.
    """
    lo, hi = (size - hole) // 2, (size + hole) // 2

    def vid(x: int, y: int) -> str:
        return f"g{x + 1:02d}-{y + 1:02d}"

    inside = {(x, y) for x in range(size) for y in range(size)
              if not (lo <= x < hi and lo <= y < hi)}
    pairs = {tuple(sorted((a, (a[0] + dx, a[1] + dy))))
             for a in inside for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))}
    outside = {b for pair in pairs for b in pair} - inside
    net = ElectricalNetwork(
        vertices=tuple(vid(*v) for v in sorted(inside | outside)),
        boundary=frozenset(vid(*v) for v in outside),
        edges=tuple(Edge(f"e{k}", vid(*a), vid(*b), 1.0) for k, (a, b) in enumerate(sorted(pairs))),
        name=f"holed-grid-{size}")
    cut = [(vid(x, size // 2 - 1), vid(x, size // 2)) for x in range(hi, size)]
    return net, GaugeField.with_minus_edges(net, cut)


def random_network(rng: np.random.Generator, max_interior: int = 12,
                   max_boundary: int = 3, extra_edge_prob: float = 0.35,
                   p_minus: float = 0.4) -> tuple[ElectricalNetwork, GaugeField]:
    """Random connected network (random tree plus extra edges) with a random gauge."""
    n_int = int(rng.integers(1, max_interior + 1))
    n_bnd = int(rng.integers(1, max_boundary + 1))
    interior = [f"i{k:02d}" for k in range(n_int)]
    boundary = [f"b{k}" for k in range(n_bnd)]
    vertices = interior + boundary
    perm = list(rng.permutation(len(vertices)))
    keys = set()
    for pos in range(1, len(vertices)):
        a = vertices[perm[pos]]
        b = vertices[perm[int(rng.integers(0, pos))]]
        keys.add(edge_key(a, b))
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            if rng.random() < extra_edge_prob:
                keys.add(edge_key(vertices[i], vertices[j]))
    edges = tuple(Edge(f"e{k}", u, v, float(rng.uniform(0.5, 2.0)))
                  for k, (u, v) in enumerate(sorted(keys)))
    net = ElectricalNetwork(vertices=tuple(vertices), boundary=frozenset(boundary),
                            edges=edges, name="random")
    signs = {e.key: (-1 if rng.random() < p_minus else 1) for e in edges}
    return net, GaugeField(net, signs)


def reference_fields(network: ElectricalNetwork, gauge: Optional[GaugeField],
                     rng: np.random.Generator, n: int) -> np.ndarray:
    """A reference field sampler from the draws z = rng.standard_normal((m, n)),
    G the Green matrix (twisted by gauge unless it is None) and pos the order
    of its Laplacian's factor: with G renumbered into that order and then
    reversed, its lower Cholesky factor times z, renumbered and reversed
    alike, by position in the sorted interior.  When pos is the reversal, as
    on the dense route, this is chol(G) @ z, bit for bit."""
    lap = (spectral.laplacian(network) if gauge is None
           else spectral.twisted_laplacian(network, gauge))
    pos, inv = lap.factor[1], np.argsort(lap.factor[1])
    g = spectral.green_of(lap).entries[np.ix_(inv, inv)][::-1, ::-1]
    z = rng.standard_normal((len(network.interior), n))
    return (np.linalg.cholesky(g) @ z[pos][::-1])[::-1][pos]


def renumbered(net: ElectricalNetwork, gauge: GaugeField,
               pos: np.ndarray) -> tuple[ElectricalNetwork, GaugeField]:
    """net and gauge with every vertex renamed, so that the renamed sorted
    interior, reversed, is the factor order pos of net: interior vertex i
    becomes the vertex at index m - 1 - pos[i].  So the dense route on the
    renamed network eliminates in the order pos gives."""
    m = len(net.interior)
    name = {v: f"i{m - 1 - p:07d}" for v, p in zip(net.interior, pos.tolist())}
    name.update((b, f"b{b}") for b in net.boundary)
    renamed = ElectricalNetwork(
        tuple(name[v] for v in net.vertices), frozenset(name[b] for b in net.boundary),
        tuple(Edge(e.id, name[e.u], name[e.v], e.conductance) for e in net.edges), net.name)
    return renamed, GaugeField(renamed, {edge_key(name[u], name[v]): s
                                         for (u, v), s in gauge.signs.items()})


def duplicate_edge_id_pt() -> dict:
    """networks/pt.json with edge #0's id set to "e1" and edge #1's id dropped,
    so that the parser's default id for edge #1, e1, repeats edge #0's."""
    data = json.loads((NETWORKS / "pt.json").read_text())
    data["edges"][0]["id"] = "e1"
    del data["edges"][1]["id"]
    return data


def random_trivial_gauge(rng: np.random.Generator, net: ElectricalNetwork) -> GaugeField:
    """A gauge field obtained by conjugating all-plus with random vertex signs."""
    from ggff import VertexSigns, apply_gauge_transform

    vs = VertexSigns(net, {v: (-1 if rng.random() < 0.5 else 1) for v in net.vertices})
    return apply_gauge_transform(vs, GaugeField.all_plus(net))


def with_conductances(net: ElectricalNetwork, conductances) -> ElectricalNetwork:
    """net with its edges' conductances replaced, in edge order, unvalidated."""
    return dataclasses.replace(net, edges=tuple(
        dataclasses.replace(e, conductance=float(c)) for e, c in zip(net.edges, conductances)))


class ParityUnionFind:
    """Union-find whose nodes carry a sign relative to their root; a reference
    balance algorithm independent of the package's double-cover labelling."""

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


def union_find_balanced(network: ElectricalNetwork, edge_open, gauge: GaugeField) -> bool:
    """Reference event detector: every open edge (edge_open maps edge keys to
    marks) joined in a ParityUnionFind over network's interior."""
    idx = network.interior_index
    uf = ParityUnionFind(len(idx))
    return all(uf.union(idx[u], idx[v], gauge.signs[(u, v)])
               for (u, v), o in edge_open.items() if o)


def cycles_balanced(edge_open, gauge: GaugeField) -> bool:
    """Reference event detector by spanning forest: some fundamental cycle has
    holonomy -1 iff the component has any -1 cycle at all (holonomy is linear
    over the cycle space)."""
    open_edges = [k for k, o in edge_open.items() if o]
    verts = sorted({v for k in open_edges for v in k})
    adj: dict[str, list[str]] = {v: [] for v in verts}
    for u, v in open_edges:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict[str, Optional[str]] = {}
    depth: dict[str, int] = {}
    tree: set = set()
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


EXCURSION_ATTEMPT_CAP = 10**6


class RejectionSoupSampler(LoopSoupSampler):
    """A reference loop-soup sampler, independent of the h-transform: it keeps
    LoopSoupSampler's level masses, draws one Poisson count per level, and
    draws each excursion from v_i as the plain jump chain, thrown away when
    it is killed before it returns.  Its loops are integer paths whose edge
    positions come from the keys of network.interior_edges."""

    def __init__(self, network: ElectricalNetwork, alpha: float):
        super().__init__(network, alpha)
        # per neighbour: interior target index, or -1 for a boundary jump; the
        # edge's position in network.interior_edges; and the cumulative jump
        # probabilities but the last, so that a uniform at or past the rounded
        # total still picks the last neighbour
        position = {k: e for e, k in enumerate(network.interior_edges[0])}
        self.jump_targets: list[list[int]] = []
        self.jump_edges: list[list[int]] = []
        self.jump_cum: list[list[float]] = []
        for i, v in enumerate(self.interior):
            nbrs = network.adjacency[v]
            self.jump_targets.append([network.interior_index.get(w, -1) for w, _ in nbrs])
            self.jump_edges.append([position.get(edge_key(v, w), -1) for w, _ in nbrs])
            probs = np.array([c for _, c in nbrs]) / self.w[i]
            self.jump_cum.append(np.cumsum(probs)[:-1].tolist())

    def _excursion(self, i: int, rng: np.random.Generator) -> tuple[list[int], list[int]]:
        """One jump-chain excursion v_i -> v_i avoiding killed vertices, by
        rejection (acceptance probability is the return probability): the
        vertices it leaves and the edges it jumps along, in order."""
        targets, edges, cums = self.jump_targets, self.jump_edges, self.jump_cum
        uniform = rng.random
        for _ in range(EXCURSION_ATTEMPT_CAP):
            path, steps, v = [], [], i
            while True:
                k = bisect_right(cums[v], uniform())
                code = targets[v][k]
                if code < i:
                    break  # killed (boundary jumps are -1); reject this attempt
                path.append(v)
                steps.append(edges[v][k])
                if code == i:
                    return path, steps
                v = code
        raise RuntimeError(f"excursion sampling exceeded {EXCURSION_ATTEMPT_CAP} attempts")

    def sample_with(self, rng: np.random.Generator, seed: int) -> LoopSoupSample:
        """Loop after loop, its excursions, then its holding times, appended
        to the soup's flat path."""
        skeleton, edges, times, ends = [], [], [np.empty(0)], [0]
        means = (self.alpha * self.level_mass).tolist()
        for i, r in enumerate(self.return_prob.tolist()):
            if r <= 0.0:
                continue
            for _ in range(rng.poisson(means[i])):
                for _ in range(int(rng.logseries(r))):
                    path, steps = self._excursion(i, rng)
                    skeleton += path
                    edges += steps
                times.append(rng.exponential(scale=self.mean_holding[skeleton[ends[-1]:]]))
                ends.append(len(skeleton))
        jump_free = rng.standard_gamma(self.alpha, len(self.interior)) * self.mean_holding
        return LoopSoupSample(self.network, np.array(skeleton, dtype=np.intp),
                              np.array(edges, dtype=np.intp), np.concatenate(times),
                              np.array(ends), jump_free, self.alpha, seed)
