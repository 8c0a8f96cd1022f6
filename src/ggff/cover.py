"""Two-sheeted covers of a network induced by a gauge field.

Every edge with sign +1 lifts to two within-sheet edges, every edge with
sign -1 to two cross-sheet edges.  The cover is connected exactly when the
gauge field is non-trivial, and loops lift to paths that change sheet
exactly when their holonomy is -1.

The labelling kernel _cover_labels decides every balance question of the
package: a signed graph is balanced (admits vertex signs making every edge's
sign product +1) exactly when no vertex has both lifts in one component of
its double cover.  It labels the +1 clusters first, and then the double cover
of their quotient by the -1 edges, which has the same components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Edge, ElectricalNetwork, GaugeField, _frozen, cached_on


def cover_vertex_id(base_vertex: str, sheet: int) -> str:
    """The id of base_vertex's lift to sheet 1 or 2."""
    return f"({base_vertex},{sheet})"


@dataclass(frozen=True)
class DoubleCover:
    base: ElectricalNetwork
    cover_network: ElectricalNetwork

    @cached_property
    def interior_lifts(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions in cover_network.interior of the sheet-1 and the sheet-2
        lifts of base.interior; read-only.  The deck swaps the two arrays."""
        idx = self.cover_network.interior_index
        return tuple(_frozen([idx[cover_vertex_id(x, sheet)] for x in self.base.interior],
                             np.intp) for sheet in (1, 2))


def build_double_cover(network: ElectricalNetwork, gauge: GaugeField) -> DoubleCover:
    """gauge's double cover of network: built on first use and cached on gauge."""
    if gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
    return cached_on(gauge, "_double_cover", lambda: _double_cover(network, gauge))


def _double_cover(network: ElectricalNetwork, gauge: GaugeField) -> DoubleCover:
    vertices = [cover_vertex_id(v, s) for v in network.vertices for s in (1, 2)]
    edges: list[Edge] = []
    for key in network.sorted_edge_keys:
        e = network.edge_map[key]
        x, y = key
        if gauge.signs[key] == 1:
            pairs = [(cover_vertex_id(x, 1), cover_vertex_id(y, 1)),
                     (cover_vertex_id(x, 2), cover_vertex_id(y, 2))]
        else:
            pairs = [(cover_vertex_id(x, 1), cover_vertex_id(y, 2)),
                     (cover_vertex_id(x, 2), cover_vertex_id(y, 1))]
        for s, (a, b) in enumerate(pairs, start=1):
            edges.append(Edge(f"({e.id},{s})", a, b, e.conductance))
    boundary = frozenset(cover_vertex_id(v, s) for v in network.boundary for s in (1, 2))
    cover_net = ElectricalNetwork(
        vertices=tuple(vertices), boundary=boundary, edges=tuple(edges),
        name=f"{network.name}^db" if network.name else "")
    return DoubleCover(base=network, cover_network=cover_net)


# Bounds the nodes (m per sample) of the open +1 subgraph one connected_components
# call labels, so the samples of a chunk and the memory its labelling takes.
_COVER_NODES_PER_CALL = 1 << 16


def _cover_pattern(m: int, edge_u: np.ndarray, edge_v: np.ndarray, rel: np.ndarray,
                   n: int) -> tuple:
    """_cover_labels' read-only +1 row pattern, -1 edge ends and arc data for up to n
    samples a chunk, edge i joining vertices edge_u[i] and edge_v[i] of 0..m-1 with
    sign rel[i]: a call's batches share one, a smaller batch reading a slice."""
    plus, minus = np.flatnonzero(rel == 1), np.flatnonzero(rel == -1)
    rows = plus[np.argsort(edge_u[plus], kind="stable")]  # each pattern entry's row of opened
    shift = np.arange(max(1, min(n, _COVER_NODES_PER_CALL // max(m, 1))), dtype=np.int32)[:, None]
    indptr = np.zeros(m * len(shift) + 1, dtype=np.int32)
    indptr[1:] = (np.cumsum(np.bincount(edge_u[rows], minlength=m)) + len(rows) * shift).ravel()
    tails = edge_u[rows].astype(np.int32) + m * shift
    data = np.ones(max(tails.size, 4 * len(minus) * len(shift)))  # the arcs of either stage
    pattern = (rows, (edge_v[rows] - edge_u[rows]).astype(np.int32), indptr, tails, data,
               minus, np.stack((edge_u[minus], edge_v[minus])))
    for a in pattern:
        a.flags.writeable = False
    return m, *pattern


def _cover_labels(pattern: tuple, opened: np.ndarray) -> np.ndarray:
    """Component labels of the double covers of the open subgraphs, one per
    column of opened, on the network and signs of _cover_pattern's pattern.

    Cover node (s, v, sheet) is numbered 2*(s*m + v) + sheet: an open +1 edge
    joins the same-sheet lifts of its ends, an open -1 edge the cross lifts.
    Stage 1 labels the open +1 subgraph (node s*m + v), each +1 edge once in
    the pattern's rows, sorted by tail, an open edge pointing to its head, a
    closed one to its tail (a loop); a +1 cluster of smallest vertex low lifts
    to sheets labelled 2*low and 2*low + 1.  Stage 2 joins these sheets along
    the open -1 edges, the double cover of the quotient by the clusters: a
    cluster all of whose -1 edge ends lie on one edge is folded into the other
    end's sheets, and a second call labels the rest, each edge there two
    nodes, one per pair of sheets it joins.  Each chunk's marks are gathered as
    it is labelled.  Returns int32 lab of shape (n, m, 2), lab[s, v, sheet] the
    smallest node number in the component of (s, v, sheet), below 2*m*n, which
    must fit int32.  Hence, in column s:
    - the open clusters are balanced iff no v has lab[s, v, 0] == lab[s, v, 1];
    - x and y share a cluster iff lab[s, x, 0] is lab[s, y, 0] or lab[s, y, 1]
      (with all signs +1, iff lab[s, x, 0] == lab[s, y, 0]);
    - in the event, the canonical recolouring tau(v) is +1 iff lab[s, v, 0] is
      even: that component holds one lift of each vertex of v's cluster, and
      its smallest node lifts the cluster's smallest vertex.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    def components(indices, indptr):
        graph = csr_array((data[:indices.size], indices, indptr), shape=(len(indptr) - 1,) * 2)
        return connected_components(graph, directed=True, connection="weak")

    m, rows, hop, indptr, tails, data, minus, minus_uv = pattern
    n = opened.shape[1]
    if 2 * m * n > np.iinfo(np.int32).max:
        raise ValueError(f"{n} samples of {m} vertices overflow the int32 labels")
    lab = np.empty((m * n, 2), dtype=np.int32)
    for s0 in range(0, n, len(tails)):
        k = min(n, s0 + len(tails)) - s0
        count, part = components((tails[:k] + opened[rows, s0:s0 + k].T * hop).ravel(),
                                 indptr[:m * k + 1])
        low = np.full(count, 2 * m * n, dtype=np.int32)  # each +1 cluster's sheet-0 label
        np.minimum.at(low, part, np.arange(2 * m * s0, 2 * m * (s0 + k), 2, dtype=np.int32))
        sheets = np.stack((low, low + 1), axis=1)
        e, t = np.nonzero(opened[minus, s0:s0 + k])
        if e.size:  # open -1 edge j joins clusters a[j] and b[j]
            a, b = part[minus_uv[:, e] + m * t]
            deg = np.bincount(a, minlength=count) + np.bincount(b, minlength=count)
            a, b = np.where(deg[b] == 1, (a, b), (b, a))  # a leaf cluster, if either is one, at b
            fold = deg[b] == 1 + (a == b)  # b's only -1 edge: b's sheets join a's, crossed
            np.minimum.at(sheets, a[fold], sheets[b[fold], ::-1])
            if not fold.all():  # the rest: touched cluster r's sheets are nodes 2r and 2r + 1
                ids, ends = np.unique(np.compress(~fold, (a, b), axis=1), return_inverse=True)
                x, y = 2 * ends.reshape(2, -1).astype(np.int32)
                q = 2 * len(ids)  # then -1 edge j's nodes q + 2j + t, joining x + t and y + 1 - t
                qcount, qpart = components(
                    np.stack((x, y + 1, x + 1, y), axis=1).ravel(),
                    np.arange(-2 * q, 4 * x.size + 1, 2, dtype=np.int32).clip(0))
                qlow = np.full(qcount, 2 * m * n, dtype=np.int32)
                np.minimum.at(qlow, qpart[:q], sheets[ids].ravel())
                sheets[ids] = qlow[qpart[:q]].reshape(-1, 2)
            sheets[b[fold]] = sheets[a[fold], ::-1]
        chunk = lab[m * s0:m * (s0 + k)]  # both labels of a node moved as one int64
        np.take(sheets.view(np.int64)[:, 0], part, out=chunk.view(np.int64)[:, 0])
    return lab.reshape(n, m, 2)


def _balanced(lab: np.ndarray) -> np.ndarray:
    """Per sample of _cover_labels: whether every open cluster is balanced."""
    return (lab[:, :, 0] != lab[:, :, 1]).all(axis=1)


def _label_sign(lab: np.ndarray) -> np.ndarray:
    """The canonical recolouring read off _cover_labels labels: +1 where even."""
    return 1 - 2 * (lab % 2)
