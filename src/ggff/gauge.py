"""Gauge transformations, and gauge equivalence with certificates.

The gauge group is {-1,+1}.  The holonomy of a loop, the product of the edge
signs it traverses, is invariant under gauge transformations, and two gauge
fields are equivalent exactly when all loop holonomies agree.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .cover import _balanced, _cover_labels, _cover_pattern, _label_sign
from .network import GaugeField, VertexSigns


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
