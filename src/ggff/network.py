"""Electrical networks with boundary: validation, JSON i/o, edge subdivision.

A network is a finite connected weighted graph whose vertex set is split into
interior and boundary vertices.  Conductances are strictly positive; the
resistance (edge-line length in the metric picture) of an edge is the inverse
of its conductance.  Vertex ids are opaque strings; integer ids found in input
files are normalized to strings.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

import numpy as np


class NetworkFormatError(ValueError):
    """Raised when a network file or dict cannot be parsed."""


class InvalidNetworkError(ValueError):
    """Raised when a structurally parsed network violates an invariant."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


EdgeKey = tuple[str, str]


def _frozen(values: list, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def cached_on(owner, name: str, build):
    """owner's value called name, from build() on first use.  It is kept in
    owner.__dict__, where functools.cached_property keeps its values, so it
    dies with owner, and a frozen dataclass can hold it."""
    cache = vars(owner)
    if name not in cache:
        cache[name] = build()
    return cache[name]


def edge_key(u: str, v: str) -> EdgeKey:
    """Canonical unordered key of an edge, endpoints sorted."""
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Edge:
    id: str
    u: str
    v: str
    conductance: float

    @property
    def key(self) -> EdgeKey:
        return edge_key(self.u, self.v)


@dataclass(frozen=True)
class ElectricalNetwork:
    """Finite weighted graph with an interior/boundary vertex partition.

    Immutable after construction; derived accessors are cached and the object
    can be shared freely across threads.
    """

    vertices: tuple[str, ...]
    boundary: frozenset[str]
    edges: tuple[Edge, ...]
    name: str = ""

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def interior(self) -> tuple[str, ...]:
        """Interior vertices in sorted order; fixes all matrix orderings."""
        return tuple(sorted(self.vertex_set - self.boundary))

    @cached_property
    def edge_map(self) -> dict[EdgeKey, Edge]:
        return {e.key: e for e in self.edges}

    @cached_property
    def sorted_edge_keys(self) -> tuple[EdgeKey, ...]:
        return tuple(sorted(self.edge_map))

    @cached_property
    def adjacency(self) -> dict[str, tuple[tuple[str, float], ...]]:
        """Per vertex: (neighbor, conductance) pairs sorted by neighbor id."""
        adj: dict[str, list[tuple[str, float]]] = {v: [] for v in self.vertices}
        for e in self.edges:
            adj[e.u].append((e.v, e.conductance))
            adj[e.v].append((e.u, e.conductance))
        return {v: tuple(sorted(nbrs)) for v, nbrs in adj.items()}

    def weighted_degree(self, v: str) -> float:
        """Total conductance emanating from v (all neighbors, boundary included)."""
        return sum(c for _, c in self.adjacency[v])

    @cached_property
    def interior_index(self) -> dict[str, int]:
        """Position of each interior vertex in `interior`."""
        return {v: i for i, v in enumerate(self.interior)}

    @cached_property
    def interior_edges(self) -> tuple[tuple[EdgeKey, ...], np.ndarray, np.ndarray, np.ndarray]:
        """(keys, u, v, conductance) of the edges between interior vertices in
        sorted_edge_keys order, u and v being the interior_index of each key's
        ends; every numeric layer shares these read-only arrays."""
        idx = self.interior_index
        keys = tuple(k for k in self.sorted_edge_keys if k[0] in idx and k[1] in idx)
        return (keys, _frozen([idx[a] for a, _ in keys], np.intp),
                _frozen([idx[b] for _, b in keys], np.intp),
                _frozen([self.edge_map[k].conductance for k in keys], float))

    @cached_property
    def interior_degrees(self) -> np.ndarray:
        """weighted_degree(x), W(x), of each interior vertex in interior order; read-only."""
        return _frozen([self.weighted_degree(v) for v in self.interior], float)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for w, _ in self.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertex_set)

    def to_json_dict(self, gauge: Optional["GaugeField"] = None) -> dict:
        edges = []
        for e in self.edges:
            d: dict = {"id": e.id, "u": e.u, "v": e.v, "conductance": e.conductance}
            if gauge is not None:
                d["sigma"] = gauge.signs[e.key]
            edges.append(d)
        return {
            "vertices": list(self.vertices),
            "boundary": sorted(self.boundary),
            "edges": edges,
            "name": self.name,
        }


@dataclass(frozen=True)
class GaugeField:
    """A sign in {-1,+1}, a Python int, attached to every edge of a network."""

    network: ElectricalNetwork
    signs: Mapping[EdgeKey, int]

    def __post_init__(self):
        want = set(self.network.edge_map)
        got = set(self.signs)
        if want != got:
            raise ValueError("gauge field domain must be exactly the edge set")
        for k, s in self.signs.items():
            # save_network writes True as true, which loads refuse, and cannot write np.int64
            if type(s) is not int or s not in (-1, 1):
                raise ValueError(f"gauge sign on {k} must be the int -1 or +1, got {s!r}")

    @classmethod
    def all_plus(cls, network: ElectricalNetwork) -> "GaugeField":
        return cls(network, {k: 1 for k in network.sorted_edge_keys})

    @classmethod
    def with_minus_edges(cls, network: ElectricalNetwork,
                         minus: Iterable[tuple[str, str]]) -> "GaugeField":
        signs = {k: 1 for k in network.sorted_edge_keys}
        for u, v in minus:
            k = edge_key(u, v)
            if k not in signs:
                raise ValueError(f"no edge {u}-{v} in network")
            signs[k] = -1
        return cls(network, signs)

    @cached_property
    def interior_signs(self) -> np.ndarray:
        """The signs of network.interior_edges, in their order; read-only."""
        return _frozen([self.signs[k] for k in self.network.interior_edges[0]], np.intp)

    def sign(self, u: str, v: str) -> int:
        return self.signs[edge_key(u, v)]


@dataclass(frozen=True)
class VertexSigns:
    """A sign in {-1,+1}, a Python int, attached to every vertex; induces a gauge
    transformation."""

    network: ElectricalNetwork
    signs: Mapping[str, int]

    def __post_init__(self):
        if set(self.signs) != self.network.vertex_set:
            raise ValueError("vertex signs domain must be exactly the vertex set")
        for v, s in self.signs.items():
            if type(s) is not int or s not in (-1, 1):
                raise ValueError(f"vertex sign on {v} must be the int -1 or +1, got {s!r}")

    @classmethod
    def all_plus(cls, network: ElectricalNetwork) -> "VertexSigns":
        return cls(network, {v: 1 for v in network.vertices})

    @classmethod
    def with_minus_vertices(cls, network: ElectricalNetwork,
                            minus: Iterable[str]) -> "VertexSigns":
        signs = {v: 1 for v in network.vertices}
        for v in minus:
            if v not in signs:
                raise ValueError(f"no vertex {v} in network")
            signs[v] = -1
        return cls(network, signs)


@dataclass
class ValidationReport:
    ok: bool
    problems: list[str] = field(default_factory=list)


def validate(network: ElectricalNetwork) -> ValidationReport:
    """Check all structural invariants; collects every violation found."""
    problems: list[str] = []
    seen_ids: set[str] = set()
    for v in network.vertices:
        if v in seen_ids:
            problems.append(f"duplicate vertex id {v!r}")
        seen_ids.add(v)
    unknown = network.boundary - network.vertex_set
    if unknown:
        problems.append(f"boundary vertices not in vertex list: {sorted(unknown)}")
    if not network.boundary:
        problems.append("empty boundary")
    if not (network.vertex_set - network.boundary):
        problems.append("empty interior")
    keys: set[EdgeKey] = set()
    edge_ids: set[str] = set()
    for e in network.edges:
        if e.id in edge_ids:
            problems.append(f"duplicate edge id {e.id!r}")
        edge_ids.add(e.id)
        if e.u == e.v:
            problems.append(f"self-loop at {e.u!r} (edge {e.id!r})")
            continue
        if e.u not in network.vertex_set or e.v not in network.vertex_set:
            problems.append(f"edge {e.id!r} endpoint not in vertex list")
            continue
        if e.key in keys:
            problems.append(f"duplicate edge {e.u!r}-{e.v!r}")
        keys.add(e.key)
        if not (isinstance(e.conductance, (int, float)) and math.isfinite(e.conductance)):
            problems.append(f"non-finite conductance on edge {e.id!r}")
        elif e.conductance <= 0:
            problems.append(f"non-positive conductance on edge {e.id!r}")
    if not problems and not network.is_connected():
        problems.append("disconnected")
    return ValidationReport(ok=not problems, problems=problems)


def _parse_network_dict(data: dict) -> tuple[ElectricalNetwork, GaugeField]:
    if not isinstance(data, dict):
        raise NetworkFormatError("top-level JSON value must be an object")
    for fld in ("vertices", "boundary", "edges"):
        if fld not in data:
            raise NetworkFormatError(f"missing field {fld!r}")
        if not isinstance(data[fld], list):
            raise NetworkFormatError(f"field {fld!r} must be a JSON array, "
                                     f"got {type(data[fld]).__name__}")
    vertices = tuple(str(v) for v in data["vertices"])
    vset = set(vertices)
    boundary = frozenset(str(v) for v in data["boundary"])
    for v in boundary:
        if v not in vset:
            raise NetworkFormatError(f"unknown vertex {v!r} in boundary")
    edges: list[Edge] = []
    signs: dict[EdgeKey, int] = {}
    for i, ed in enumerate(data["edges"]):
        if not isinstance(ed, dict):
            raise NetworkFormatError(f"edge #{i} is not an object")
        if isinstance(ed.get("conductance"), bool):
            raise NetworkFormatError(f"edge #{i}: conductance must be a number, "
                                     f"got {ed['conductance']!r}")
        try:
            u, v = str(ed["u"]), str(ed["v"])
            cond = float(ed["conductance"])
        except KeyError as exc:
            raise NetworkFormatError(f"edge #{i} missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise NetworkFormatError(f"edge #{i}: bad conductance value") from exc
        if u not in vset:
            raise NetworkFormatError(f"edge #{i}: unknown vertex {u!r}")
        if v not in vset:
            raise NetworkFormatError(f"edge #{i}: unknown vertex {v!r}")
        eid = str(ed.get("id", f"e{i}"))
        sigma = ed.get("sigma", 1)
        if isinstance(sigma, bool) or sigma not in (-1, 1):
            raise NetworkFormatError(f"edge #{i}: sigma must be -1 or 1, got {sigma!r}")
        edges.append(Edge(eid, u, v, cond))
        signs[edge_key(u, v)] = int(sigma)
    net = ElectricalNetwork(vertices=vertices, boundary=boundary,
                            edges=tuple(edges), name=str(data.get("name", "")))
    report = validate(net)
    if not report.ok:
        raise InvalidNetworkError(report.problems)
    return net, GaugeField(net, signs)


def load_network(source: Union[str, os.PathLike]) -> tuple[ElectricalNetwork, GaugeField]:
    """Load a network (and its gauge field, default all +1) from JSON.

    `source` is a path, or raw JSON text when it looks like an object literal.
    Raises NetworkFormatError on malformed input and InvalidNetworkError when
    the parsed network violates an invariant.
    """
    text: str
    if isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _parse_network_dict(data)


def save_network(network: ElectricalNetwork, path, gauge: Optional[GaugeField] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(network.to_json_dict(gauge), fh, indent=2)
        fh.write("\n")


@dataclass(frozen=True)
class SubdividedNetwork:
    """Result of replacing every edge by an N-edge path of conductance N*C(e)."""

    network: ElectricalNetwork


def subdivide(network: ElectricalNetwork, gauge: GaugeField,
              n: int) -> tuple[SubdividedNetwork, GaugeField]:
    """Subdivide each edge into n (odd) edges, carrying the gauge field along.

    New conductances are n*C(e).  A +1 edge yields all +1 sub-edges; a -1 edge
    puts the -1 on the middle sub-edge (position (n+1)/2) and +1 elsewhere.
    New vertex ids are "<edge id>#<k>", k = 1..n-1, and sub-edge ids
    "<edge id>#<k>", k = 1..n, both counted from the smaller endpoint of the
    parent edge.  Raises InvalidNetworkError for an invalid network, or when
    some n*C(e) overflows; a valid input makes a valid output.  Cached per n on gauge.
    """
    if gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"subdivision count must be odd and >= 1, got {n}")
    return cached_on(gauge, f"_subdivided_{n}", lambda: _subdivide(network, gauge, n))


def _subdivide(network: ElectricalNetwork, gauge: GaugeField,
               n: int) -> tuple[SubdividedNetwork, GaugeField]:
    problems = validate(network).problems or [
        f"conductance {n} x {e.conductance!r} on edge {e.id!r} overflows"
        for e in network.edges if not math.isfinite(n * e.conductance)]
    if problems:
        raise InvalidNetworkError(problems)

    new_vertices: list[str] = list(network.vertices)
    new_edges: list[Edge] = []
    new_signs: dict[EdgeKey, int] = {}
    vset = set(network.vertices)

    for key in network.sorted_edge_keys:
        e = network.edge_map[key]
        lo, hi = key
        path = [lo]
        for k in range(1, n):
            vid = f"{e.id}#{k}"
            if vid in vset:
                raise ValueError(f"generated vertex id {vid!r} collides with an existing vertex")
            vset.add(vid)
            new_vertices.append(vid)
            path.append(vid)
        path.append(hi)
        cond = n * e.conductance
        mid = (n + 1) // 2
        for k in range(1, n + 1):
            new_edges.append(Edge(f"{e.id}#{k}", path[k - 1], path[k], cond))
            new_signs[edge_key(path[k - 1], path[k])] = gauge.signs[key] if k == mid else 1

    sub = ElectricalNetwork(vertices=tuple(new_vertices), boundary=network.boundary,
                            edges=tuple(new_edges),
                            name=f"{network.name}^({n})" if network.name else "")
    return SubdividedNetwork(network=sub), GaugeField(sub, new_signs)
