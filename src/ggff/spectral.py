"""Laplacians, Green functions, and the closed-form determinant identities.

All matrices are dense and restricted to the interior vertices in sorted-id
order (laplacian also takes another order), with zero boundary conditions.
Each LaplacianMatrix is factored once, by a Cholesky factor cached on it; its
positive-definiteness check, its log determinant and its full inverse all
reuse that factor.  Determinants are accumulated as log determinants, so
ratios never overflow.  A Green matrix is formed in full only where all its
entries are used: restricted_green solves for the columns of a vertex list
alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .cover import DoubleCover, build_double_cover
from .network import ElectricalNetwork, GaugeField, InvalidNetworkError


@dataclass(frozen=True)
class LaplacianMatrix:
    """Interior block of -Laplacian: diagonal W(x), off-diagonal -sigma*C."""

    interior_order: tuple[str, ...]
    entries: np.ndarray
    kind: str  # "untwisted" | "twisted" | "cover"

    @cached_property
    def factor(self) -> tuple[np.ndarray, bool]:
        """The lower Cholesky factor in scipy's (c, lower) form, computed once.

        Only the lower triangle of c is the factor; the upper one is left over.
        """
        try:
            return sla.cho_factor(self.entries, lower=True)
        except np.linalg.LinAlgError as exc:
            raise InvalidNetworkError(
                [f"{self.kind} Laplacian is not positive definite: {exc}"]) from exc

    def cholesky(self) -> np.ndarray:
        return np.tril(self.factor[0])

    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.factor[0]))))


@dataclass(frozen=True)
class GreenMatrix:
    interior_order: tuple[str, ...]
    entries: np.ndarray
    kind: str
    asymmetry: float  # max |G - G^T| before symmetrization

    def value(self, x: str, y: str) -> float:
        i = self.interior_order.index(x)
        j = self.interior_order.index(y)
        return float(self.entries[i, j])


def _assemble(network: ElectricalNetwork, gauge: GaugeField | None, kind: str,
              order: tuple[str, ...] | None = None) -> LaplacianMatrix:
    order = network.interior if order is None else order
    idx = {v: i for i, v in enumerate(order)}
    m = len(order)
    a = np.zeros((m, m))
    for v in order:
        a[idx[v], idx[v]] = network.weighted_degree(v)
    for (u, v), e in network.edge_map.items():
        if u in idx and v in idx:
            s = 1 if gauge is None else gauge.signs[(u, v)]
            a[idx[u], idx[v]] = -s * e.conductance
            a[idx[v], idx[u]] = -s * e.conductance
    lap = LaplacianMatrix(order, a, kind)
    lap.factor  # positive definiteness is part of the contract
    return lap


def laplacian(network: ElectricalNetwork,
              order: tuple[str, ...] | None = None) -> LaplacianMatrix:
    """In sorted interior order, or in the given order of the interior."""
    return _assemble(network, None, "untwisted", order)


def twisted_laplacian(network: ElectricalNetwork, gauge: GaugeField) -> LaplacianMatrix:
    if gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
    return _assemble(network, gauge, "twisted")


def _symmetric_green(order: tuple[str, ...], g: np.ndarray, kind: str) -> GreenMatrix:
    asym = float(np.max(np.abs(g - g.T))) if g.size else 0.0
    return GreenMatrix(order, 0.5 * (g + g.T), kind, asym)


def _invert(lap: LaplacianMatrix) -> GreenMatrix:
    g = sla.cho_solve(lap.factor, np.eye(len(lap.interior_order)), check_finite=False)
    return _symmetric_green(lap.interior_order, g, lap.kind)


def green(network: ElectricalNetwork) -> GreenMatrix:
    """Inverse of the interior -Laplacian block (zero boundary conditions)."""
    return _invert(laplacian(network))


def twisted_green(network: ElectricalNetwork, gauge: GaugeField) -> GreenMatrix:
    """Inverse of the twisted block; off-diagonal entries may be negative."""
    return _invert(twisted_laplacian(network, gauge))


def restricted_green(network: ElectricalNetwork, vertices,
                     gauge: GaugeField | None = None) -> GreenMatrix:
    """G, or G_sigma when a gauge is given, on vertices x vertices.

    Factors the Laplacian once and solves only for the listed vertices'
    columns, so the full inverse is never formed.  Equals the matching block
    of green() or twisted_green().
    """
    vertices = tuple(vertices)
    lap = laplacian(network) if gauge is None else twisted_laplacian(network, gauge)
    idx = {v: i for i, v in enumerate(lap.interior_order)}
    sel = np.array([idx[v] for v in vertices], dtype=np.intp)
    rhs = np.zeros((len(idx), len(sel)))
    rhs[sel, np.arange(len(sel))] = 1.0
    g = sla.cho_solve(lap.factor, rhs, check_finite=False)[sel]
    return _symmetric_green(vertices, g, lap.kind)


def cover_laplacian(cover: DoubleCover) -> LaplacianMatrix:
    return _assemble(cover.cover_network, None, "cover")


def cover_green(cover: DoubleCover) -> GreenMatrix:
    return _invert(cover_laplacian(cover))


def det_ratio(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """sqrt(det G_sigma / det G), computed from Laplacian log determinants.

    Always in (0, 1]; equals 1 exactly when no interior cycle has holonomy -1.
    """
    ld = laplacian(network).log_det()
    ld_s = twisted_laplacian(network, gauge).log_det()
    return float(np.exp(0.5 * (ld - ld_s)))


def loop_mass(network: ElectricalNetwork) -> float:
    """log(det G * prod W): total measure of loops visiting >= 2 vertices."""
    lw = sum(np.log(network.weighted_degree(v)) for v in network.interior)
    return float(lw - laplacian(network).log_det())


def twisted_loop_mass(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """Same with the twisted Green function; the signed-measure total."""
    lw = sum(np.log(network.weighted_degree(v)) for v in network.interior)
    return float(lw - twisted_laplacian(network, gauge).log_det())


def negative_holonomy_mass(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """Loop measure of {holonomy -1}: half the gap between the two masses.

    Satisfies det_ratio = exp(-negative_holonomy_mass).
    """
    return 0.5 * (loop_mass(network) - twisted_loop_mass(network, gauge))


@dataclass(frozen=True)
class CoverGreenReport:
    """Residuals of the sheet-sum and sheet-difference Green identities."""

    residual_untwisted: float  # max |G - (G_11 + G_12)|
    residual_twisted: float    # max |G_sigma - (G_11 - G_12)|
    residual_deck: float       # max |G^db(psi ., psi .) - G^db|


def _sheet_lifts(cov: DoubleCover, order, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the cover's interior order of the sheet-1 and the sheet-2
    lifts of vertices."""
    idx = {v: i for i, v in enumerate(order)}
    return tuple(np.array([idx[cov.lift(x, sheet)] for x in vertices], dtype=np.intp)
                 for sheet in (1, 2))


def cover_green_relations(network: ElectricalNetwork, gauge: GaugeField) -> CoverGreenReport:
    """Check G = G11 + G12 and G_sigma = G11 - G12 on the double cover."""
    cov = build_double_cover(network, gauge)
    g = green(network)
    gs = twisted_green(network, gauge)
    gdb = cover_green(cov)
    one, two = _sheet_lifts(cov, gdb.interior_order, g.interior_order)
    g11 = gdb.entries[np.ix_(one, one)]
    g12 = gdb.entries[np.ix_(one, two)]
    m = len(g.interior_order)
    res_u = float(np.max(np.abs(g.entries - (g11 + g12)))) if m else 0.0
    res_t = float(np.max(np.abs(gs.entries - (g11 - g12)))) if m else 0.0
    idx = {v: i for i, v in enumerate(gdb.interior_order)}
    deck = np.array([idx[cov.deck[a]] for a in gdb.interior_order], dtype=np.intp)
    res_d = (float(np.max(np.abs(gdb.entries[np.ix_(deck, deck)] - gdb.entries)))
             if gdb.entries.size else 0.0)
    return CoverGreenReport(res_u, res_t, res_d)


def subspace_log_determinants(network: ElectricalNetwork,
                              gauge: GaugeField) -> tuple[float, float]:
    """Log determinants of the cover -Laplacian on the symmetric/antisymmetric parts.

    The two subspaces are spanned by (e_{x,1} +- e_{x,2})/sqrt(2) over the
    sheet-1 interior fundamental domain; they are stable under the operator
    and the determinants equal 1/det G and 1/det G_sigma respectively.  In
    that basis the operator is (L11 + L22 +- (L12 + L21)) / 2 in sheet blocks.
    """
    cov = build_double_cover(network, gauge)
    lap = cover_laplacian(cov)
    base_int = network.interior
    one, two = _sheet_lifts(cov, lap.interior_order, base_int)
    same = lap.entries[np.ix_(one, one)] + lap.entries[np.ix_(two, two)]
    cross = lap.entries[np.ix_(one, two)] + lap.entries[np.ix_(two, one)]
    a_plus = 0.5 * (same + cross)
    a_minus = 0.5 * (same - cross)
    return (LaplacianMatrix(base_int, a_plus, "cover").log_det(),
            LaplacianMatrix(base_int, a_minus, "cover").log_det())


def subspace_determinants(network: ElectricalNetwork, gauge: GaugeField) -> tuple[float, float]:
    """exp of subspace_log_determinants: 1/det G and 1/det G_sigma.

    These overflow to inf once a log determinant passes about 709.8.
    """
    ld_plus, ld_minus = subspace_log_determinants(network, gauge)
    return float(np.exp(ld_plus)), float(np.exp(ld_minus))


def write_csv(matrix: GreenMatrix | LaplacianMatrix, path) -> None:
    """Dump a matrix as CSV with a header row of interior vertex ids."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["vertex", *matrix.interior_order])
        for v, row in zip(matrix.interior_order, matrix.entries):
            w.writerow([v, *(repr(float(x)) for x in row)])


def gauge_covariance_residual(network: ElectricalNetwork, gauge: GaugeField,
                              vs) -> float:
    """max |G_{vs.sigma}(x,y) - vs(x) G_sigma(x,y) vs(y)| over interior pairs."""
    from .gauge import apply_gauge_transform

    transformed = apply_gauge_transform(vs, gauge)
    g1 = twisted_green(network, transformed)
    g0 = twisted_green(network, gauge)
    s = np.array([vs.signs[v] for v in g0.interior_order], dtype=float)
    conj = s[:, None] * g0.entries * s[None, :]
    return float(np.max(np.abs(g1.entries - conj))) if conj.size else 0.0
