"""Holonomy, gauge transformations, and gauge equivalence with certificates.

The gauge group is {-1,+1}.  The holonomy of a path is the product of the
edge signs it traverses; it is invariant on loops under gauge transformations,
and two gauge fields are equivalent exactly when all loop holonomies agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cover import _balanced, _cover_labels, _cover_pattern, _label_sign
from .network import ElectricalNetwork, GaugeField, VertexSigns


@dataclass(frozen=True)
class DiscretePath:
    """A nearest-neighbor path, given by its ordered vertex sequence."""

    network: ElectricalNetwork
    vertices: tuple[str, ...]

    def __post_init__(self):
        if len(self.vertices) < 1:
            raise ValueError("a path has at least one vertex")
        for v in self.vertices:
            if v not in self.network.vertex_set:
                raise ValueError(f"unknown vertex {v!r}")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if not self.network.has_edge(a, b):
                raise ValueError(f"consecutive vertices {a!r},{b!r} are not adjacent")

    @property
    def is_loop(self) -> bool:
        return self.vertices[0] == self.vertices[-1]

    def reversed(self) -> "DiscretePath":
        return DiscretePath(self.network, tuple(reversed(self.vertices)))


def holonomy(gauge: GaugeField, path: DiscretePath) -> int:
    """Product of gauge signs over the traversed edges; +1 for a single vertex."""
    if path.network != gauge.network:
        raise ValueError("path and gauge field live on different networks")
    h = 1
    for a, b in zip(path.vertices, path.vertices[1:]):
        h *= gauge.sign(a, b)
    return h


def apply_gauge_transform(vs: VertexSigns, gauge: GaugeField) -> GaugeField:
    """Edgewise conjugation: new sign on {x,y} is vs(x) * sigma(x,y) * vs(y)."""
    if vs.network != gauge.network:
        raise ValueError("vertex signs and gauge field live on different networks")
    signs = {k: vs.signs[k[0]] * s * vs.signs[k[1]] for k, s in gauge.signs.items()}
    return GaugeField(gauge.network, signs)


def are_gauge_equivalent(sigma: GaugeField, sigma_prime: GaugeField) -> Optional[VertexSigns]:
    """Return a certificate vs with sigma' = vs . sigma, or None if inequivalent.

    vs exists exactly when the network, every edge signed sigma * sigma', is
    balanced.  Its double cover is labelled once, vertices in sorted-id
    order, and vs(v) = +1 exactly when v's sheet-0 lift has an even label.
    On a connected network exactly two certificates exist (vs and -vs); the
    returned one has +1 at the smallest vertex id.
    """
    if sigma.network != sigma_prime.network:
        raise ValueError("gauge fields live on different networks")
    net = sigma.network
    order = sorted(net.vertex_set)
    idx = {v: i for i, v in enumerate(order)}
    keys = net.sorted_edge_keys
    u = np.array([idx[a] for a, _ in keys], dtype=np.intp)
    v = np.array([idx[b] for _, b in keys], dtype=np.intp)
    rel = np.array([sigma.signs[k] * sigma_prime.signs[k] for k in keys], dtype=np.intp)
    lab = _cover_labels(_cover_pattern(len(order), u, v, rel, 1), np.ones((len(keys), 1), bool))
    if not _balanced(lab)[0]:
        return None
    return VertexSigns(net, dict(zip(order, _label_sign(lab[0, :, 0]).tolist())))


def is_trivial(gauge: GaugeField) -> tuple[bool, Optional[VertexSigns]]:
    """Whether the field is gauge-equivalent to all +1, with its certificate."""
    cert = are_gauge_equivalent(gauge, GaugeField.all_plus(gauge.network))
    return cert is not None, cert
