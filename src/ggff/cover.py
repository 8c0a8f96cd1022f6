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


def _cover_table(m: int, edge_u: np.ndarray, edge_v: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """_cover_labels of all 2^E open subgraphs of the E edges, read-only, of
    shape (2^E, m, 2): configuration j opens edge e iff bit e of j is set."""
    opened = (np.arange(1 << len(edge_u)) >> np.arange(len(edge_u))[:, None] & 1).astype(bool)
    return _frozen(_cover_labels(_cover_pattern(m, edge_u, edge_v, rel, len(opened.T)), opened),
                   np.int32)


def _table_labels(table: np.ndarray, opened: np.ndarray) -> np.ndarray:
    """_cover_labels of opened, bit for bit, from _cover_table's table: column
    s reads the row of its configuration j = sum_e opened[e] << e."""
    code = (opened * (1 << np.arange(len(opened), dtype=np.int32))[:, None]).sum(0, np.int32)
    return np.take(table, code, axis=0)


def _cover_labels(pattern: tuple, opened: np.ndarray) -> np.ndarray:
    """Component labels of the double covers of the open subgraphs, one per
    column of opened, on the network and signs of _cover_pattern's pattern.

    Cover node (v, sheet) of a sample is numbered 2*v + sheet: an open +1 edge
    joins the same-sheet lifts of its ends, an open -1 edge the cross lifts.
    Stage 1 labels the open +1 subgraph (node s*m + v of a chunk), each +1
    edge once in the pattern's rows, sorted by tail, an open edge pointing to
    its head, a closed one to its tail (a loop); a +1 cluster of smallest
    vertex low lifts to sheets labelled 2*low and 2*low + 1.  Stage 2 joins
    these sheets along the open -1 edges, the double cover of the quotient by
    the clusters, in a second call over the clusters they touch: two nodes a
    cluster, one per sheet, and two an edge, one per pair of sheets it joins.
    Each chunk's marks are gathered as it is labelled.  Returns int32 lab of
    shape (n, m, 2), lab[s, v, sheet] the smallest node number, below 2*m, in
    the component of (v, sheet) in sample s's cover.  Hence, in column s:
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
    lab = np.empty((m * n, 2), dtype=np.int32)
    for s0 in range(0, n, len(tails)):
        k = min(n, s0 + len(tails)) - s0
        count, part = components((tails[:k] + opened[rows, s0:s0 + k].T * hop).ravel(),
                                 indptr[:m * k + 1])
        low = np.full(count, 2 * m, dtype=np.int32)  # each +1 cluster's sheet-0 label
        np.minimum.at(low, part, np.tile(np.arange(0, 2 * m, 2, dtype=np.int32), k))
        sheets = np.stack((low, low + 1), axis=1)
        e, t = np.nonzero(opened[minus, s0:s0 + k])
        if e.size:  # touched cluster ids[r]'s sheets are nodes 2r and 2r + 1
            ids, ends = np.unique(part[minus_uv[:, e] + m * t], return_inverse=True)
            x, y = 2 * ends.reshape(2, -1).astype(np.int32)  # edge j's ends' sheet-0 nodes
            q = 2 * len(ids)  # then edge j's nodes q + 2j + t, joining x + t and y + 1 - t
            qcount, qpart = components(
                np.stack((x, y + 1, x + 1, y), axis=1).ravel(),
                np.arange(-2 * q, 4 * x.size + 1, 2, dtype=np.int32).clip(0))
            qlow = np.full(qcount, 2 * m, dtype=np.int32)
            np.minimum.at(qlow, qpart[:q], sheets[ids].ravel())
            sheets[ids] = qlow[qpart[:q]].reshape(-1, 2)
        chunk = lab[m * s0:m * (s0 + k)]  # both labels of a node moved as one int64
        np.take(sheets.view(np.int64)[:, 0], part, out=chunk.view(np.int64)[:, 0])
    return lab.reshape(n, m, 2)


def _balanced(lab: np.ndarray) -> np.ndarray:
    """Per sample of _cover_labels: whether every open cluster is balanced."""
    return (lab[:, :, 0] != lab[:, :, 1]).all(axis=1)


def _label_sign(lab: np.ndarray) -> np.ndarray:
    """The canonical recolouring read off _cover_labels labels: +1 where even."""
    return 1 - 2 * (lab % 2)
