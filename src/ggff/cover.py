"""Two-sheeted covers of a network induced by a gauge field.

Every edge with sign +1 lifts to two within-sheet edges, every edge with
sign -1 to two cross-sheet edges.  The cover is connected exactly when the
gauge field is non-trivial, and loops lift to paths that change sheet
exactly when their holonomy is -1.

The labelling kernel _cover_labels decides every balance question of the
package: a signed graph is balanced (admits vertex signs making every edge's
sign product +1) exactly when no vertex has both lifts in one component of
its double cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import Edge, ElectricalNetwork, GaugeField, _frozen


def cover_vertex_id(base_vertex: str, sheet: int) -> str:
    """The id of base_vertex's lift to sheet 1 or 2."""
    return f"({base_vertex},{sheet})"


@dataclass(frozen=True)
class DoubleCover:
    base: ElectricalNetwork
    gauge: GaugeField
    cover_network: ElectricalNetwork

    @cached_property
    def interior_lifts(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions in cover_network.interior of the sheet-1 and the sheet-2
        lifts of base.interior; read-only.  The deck swaps the two arrays."""
        idx = self.cover_network.interior_index
        return tuple(_frozen([idx[cover_vertex_id(x, sheet)] for x in self.base.interior],
                             np.intp) for sheet in (1, 2))


def build_double_cover(network: ElectricalNetwork, gauge: GaugeField) -> DoubleCover:
    if gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
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
    return DoubleCover(base=network, gauge=gauge, cover_network=cover_net)


# Bounds the nodes of the graph one connected_components call labels (2*m per
# sample for the double cover, m for an unsigned subgraph), and so the memory
# a batch's labelling takes at once.
_COVER_NODES_PER_CALL = 1 << 16


def _cover_labels(m: int, edge_u: np.ndarray, edge_v: np.ndarray, rel: np.ndarray,
                  opened: np.ndarray) -> np.ndarray:
    """Component labels of the double covers of the open subgraphs, one per
    column of opened (edge i joins vertices edge_u[i] and edge_v[i] of
    0..m-1, with sign rel[i]).

    Cover node (s, v, sheet) is numbered 2*(s*m + v) + sheet: an open +1 edge
    joins the same-sheet lifts of its ends, an open -1 edge the cross lifts.
    With no sign -1 the cover is two copies of the open subgraph, so that
    subgraph (node s*m + v, of smallest label low) is labelled instead and
    gives 2*low and 2*low + 1.  Each edge enters the labelled graph once per
    lift of its edge_u end, in a row pattern sorted by tail and fixed for the
    call: an open edge points to its head, a closed one to its tail (a loop).
    Each chunk's marks are gathered from opened as it is labelled.  Returns
    int32 lab of shape (n, m, 2), lab[s, v, sheet] being the smallest node
    number in the component of (s, v, sheet); node numbers stay below
    2*m*n, which must fit int32.  Hence, in column s:
    - the open clusters are balanced iff no v has lab[s, v, 0] == lab[s, v, 1];
    - x and y share a cluster iff lab[s, x, 0] is lab[s, y, 0] or lab[s, y, 1]
      (with all signs +1, iff lab[s, x, 0] == lab[s, y, 0]);
    - in the event, the canonical recolouring tau(v) is +1 iff lab[s, v, 0] is
      even: that component holds one lift of each vertex of v's cluster, and
      its smallest node lifts the cluster's smallest vertex.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n = opened.shape[1]
    lifts = 2 if (rel == -1).any() else 1
    w, sheet, stride = lifts * m, np.arange(lifts)[:, None], 2 // lifts
    if 2 * w * n > np.iinfo(np.int32).max:
        raise ValueError(f"{n} samples of {m} vertices overflow the int32 labels")
    tails = (lifts * edge_u + sheet).ravel()
    order = np.argsort(tails, kind="stable")
    hop = ((lifts * edge_v + (sheet ^ (rel == -1))).ravel() - tails)[order].astype(np.int32)
    rows = np.tile(np.arange(len(edge_u)), lifts)[order]  # each pattern entry's row of opened
    per_call = max(1, _COVER_NODES_PER_CALL // max(w, 1))
    shift = w * np.arange(min(n, per_call), dtype=np.int32)[:, None]
    indptr = np.concatenate(([0], np.cumsum(np.tile(np.bincount(tails, minlength=w), len(shift)))),
                            dtype=np.int32)
    tails = tails[order].astype(np.int32) + shift
    data = np.ones(tails.size)
    lab = np.empty((w * n, stride), dtype=np.int32)
    for s0 in range(0, n, per_call):
        k = min(n, s0 + per_call) - s0
        cols = (tails[:k] + opened[rows, s0:s0 + k].T * hop).ravel()
        count, part = connected_components(
            csr_array((data[:cols.size], cols, indptr[:w * k + 1]), shape=(w * k, w * k)),
            directed=True, connection="weak")
        low = np.full(count, w * k, dtype=np.int32)
        np.minimum.at(low, part, np.arange(w * k, dtype=np.int32))
        chunk = lab[w * s0:w * (s0 + k)]
        np.take(stride * (low + w * s0), part, out=chunk[:, 0])
        if stride == 2:  # the second copy's labels; signed, the cover labelled both lifts
            np.add(chunk[:, 0], 1, out=chunk[:, 1])
    return lab.reshape(n, m, 2)


def _balanced(lab: np.ndarray) -> np.ndarray:
    """Per sample of _cover_labels: whether every open cluster is balanced."""
    return (lab[:, :, 0] != lab[:, :, 1]).all(axis=1)


def _label_sign(lab: np.ndarray) -> np.ndarray:
    """The canonical recolouring read off _cover_labels labels: +1 where even."""
    return 1 - 2 * (lab % 2)
