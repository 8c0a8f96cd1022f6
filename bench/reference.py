"""Closed-form targets, computed with numpy alone from the generator's edge list.

Nothing here calls ggff: the Laplacians are assembled from netgen.Spec.edges,
so a fault in ggff's own assembly or solvers cannot hide in its targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALPHA = 0.5  # loopsoup-test's default intensity; kl_isomorphism_check fixes it


@dataclass(frozen=True)
class Reference:
    det_ratio: float            # sqrt(det L / det L_sigma) = P(T)
    g_sigma_pair: float         # G_sigma(x, y) at the spec's pair
    arcsine: float              # (2/pi) arcsin(G(x,y) / sqrt(G(x,x) G(y,y)))
    count: float                # alpha (sum log W - log det L): multi-vertex loops
    negative_count: float       # (alpha/2)(log det L_sigma - log det L): holonomy -1 loops
    occupation_total: float     # alpha tr G: mean total occupation of a soup
    occupation_var: float       # alpha ||G||_F^2: its variance
    occupation_second: float    # alpha (1 + alpha) sum G(x,x)^2: sum of per-vertex E[occ^2]
    split_total: float          # (1/4) tr(G + G_sigma): mean total of either isomorphism side
    split_var: float            # (1/4)(||G||_F^2 + ||G_sigma||_F^2): its variance


def laplacians(spec) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Interior blocks of -Laplacian and of the sigma-twisted -Laplacian."""
    order = spec.interior
    idx = {v: i for i, v in enumerate(order)}
    lap = np.zeros((len(order), len(order)))
    lap_s = np.zeros_like(lap)
    for _, u, v, c, s in spec.edges:
        for a in (u, v):
            if a in idx:
                lap[idx[a], idx[a]] += c
                lap_s[idx[a], idx[a]] += c
        if u in idx and v in idx:
            i, j = idx[u], idx[v]
            lap[i, j] -= c
            lap[j, i] -= c
            lap_s[i, j] -= s * c
            lap_s[j, i] -= s * c
    return order, lap, lap_s


def reference(spec) -> Reference:
    order, lap, lap_s = laplacians(spec)
    sign, ld = np.linalg.slogdet(lap)
    sign_s, ld_s = np.linalg.slogdet(lap_s)
    if sign <= 0 or sign_s <= 0:
        raise ValueError(f"{spec.name}: a Laplacian is not positive definite")
    g = np.linalg.inv(lap)
    g_s = np.linalg.inv(lap_s)
    i, j = order.index(spec.pair[0]), order.index(spec.pair[1])
    fro2, fro2_s = float(np.sum(g * g)), float(np.sum(g_s * g_s))
    return Reference(
        det_ratio=math.exp(0.5 * (ld - ld_s)),
        g_sigma_pair=float(g_s[i, j]),
        arcsine=(2.0 / math.pi) * math.asin(g[i, j] / math.sqrt(g[i, i] * g[j, j])),
        count=ALPHA * (float(np.sum(np.log(np.diag(lap)))) - ld),
        negative_count=0.5 * ALPHA * (ld_s - ld),
        occupation_total=ALPHA * float(np.trace(g)),
        occupation_var=ALPHA * fro2,
        occupation_second=ALPHA * (1.0 + ALPHA) * float(np.sum(np.diag(g) ** 2)),
        split_total=0.25 * float(np.trace(g) + np.trace(g_s)),
        split_var=0.25 * (fro2 + fro2_s),
    )
