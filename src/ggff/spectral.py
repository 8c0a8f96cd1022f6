"""Laplacians, Green functions, and the closed-form determinant identities.

Operators are restricted to the interior vertices in sorted-id order
(laplacian also takes another order), with zero boundary conditions, and are
assembled from index arrays.  A LaplacianMatrix is dense and factored once,
by a Cholesky factor cached on it; its positive-definiteness check, its log
determinant and its full inverse all reuse that factor.  Determinants are
accumulated as log determinants, so ratios never overflow.  The `*_of` forms
take operators already assembled and factored, so that a caller needing
several quantities of one operator factors it once.

A Green matrix is formed in full only where all its entries are used:
restricted_green solves for the columns of a vertex list alone.  Above
DENSE_MAX_ORDER interior vertices it never forms a dense matrix: it orders
the operator by reverse Cuthill-McKee, factors it in banded form and solves
the columns by one banded triangular solve.  Smaller operators keep the dense
route, which is faster there and keeps their bits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .cover import DoubleCover, build_double_cover
from .network import ElectricalNetwork, GaugeField, InvalidNetworkError, VertexSigns

# restricted_green factors operators up to this order densely and larger ones
# in banded form; measured crossover, one BLAS thread: order 256 dense 1.8 ms
# vs banded 2.1 ms, order 464 dense 7.3 ms vs banded 3.5 ms
DENSE_MAX_ORDER = 1000


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
            raise _not_positive_definite(self.kind, exc) from exc

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


def _not_positive_definite(kind: str, exc: Exception) -> InvalidNetworkError:
    return InvalidNetworkError([f"{kind} Laplacian is not positive definite: {exc}"])


def _index_arrays(network: ElectricalNetwork, gauge: GaugeField | None,
                  order: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the operator's nonzero entries in the given
    order, a permutation of the interior: the diagonal W(x), then each of
    network.interior_edges both ways."""
    if gauge is not None and gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
    _, u, v, c = network.interior_edges
    # position in order by interior index: the inverse of a permutation is its argsort
    pos = np.argsort([network.interior_index[x] for x in order])
    u, v, w = pos[u], pos[v], (-c if gauge is None else -(gauge.interior_signs * c))
    d = np.arange(len(order), dtype=np.intp)
    degrees = np.array([network.weighted_degree(x) for x in order], dtype=float)
    return np.concatenate((d, u, v)), np.concatenate((d, v, u)), np.concatenate((degrees, w, w))


def _assemble(network: ElectricalNetwork, gauge: GaugeField | None, kind: str,
              order: tuple[str, ...] | None = None) -> LaplacianMatrix:
    order = network.interior if order is None else order
    rows, cols, values = _index_arrays(network, gauge, order)
    a = np.zeros((len(order), len(order)))
    a[rows, cols] = values
    lap = LaplacianMatrix(order, a, kind)
    lap.factor  # positive definiteness is part of the contract
    return lap


def laplacian(network: ElectricalNetwork,
              order: tuple[str, ...] | None = None) -> LaplacianMatrix:
    """In sorted interior order, or in the given order of the interior."""
    return _assemble(network, None, "untwisted", order)


def twisted_laplacian(network: ElectricalNetwork, gauge: GaugeField) -> LaplacianMatrix:
    return _assemble(network, gauge, "twisted")


def _symmetric_green(order: tuple[str, ...], g: np.ndarray, kind: str) -> GreenMatrix:
    asym = float(np.max(np.abs(g - g.T))) if g.size else 0.0
    return GreenMatrix(order, 0.5 * (g + g.T), kind, asym)


def green_of(lap: LaplacianMatrix) -> GreenMatrix:
    """The full inverse of a Laplacian, from its cached factor."""
    g = sla.cho_solve(lap.factor, np.eye(len(lap.interior_order)), check_finite=False)
    return _symmetric_green(lap.interior_order, g, lap.kind)


def green(network: ElectricalNetwork) -> GreenMatrix:
    """Inverse of the interior -Laplacian block (zero boundary conditions)."""
    return green_of(laplacian(network))


def twisted_green(network: ElectricalNetwork, gauge: GaugeField) -> GreenMatrix:
    """Inverse of the twisted block; off-diagonal entries may be negative."""
    return green_of(twisted_laplacian(network, gauge))


def restricted_green(network: ElectricalNetwork, vertices,
                     gauge: GaugeField | None = None) -> GreenMatrix:
    """G, or G_sigma when a gauge is given, on vertices x vertices.

    Factors the Laplacian once and solves only for the listed vertices'
    columns, so the full inverse is never formed.  Equals the matching block
    of green() or twisted_green().  Above DENSE_MAX_ORDER interior vertices
    the Laplacian is never formed densely either (see _banded_columns).
    """
    vertices = tuple(vertices)
    kind = "untwisted" if gauge is None else "twisted"
    sel = np.array([network.interior_index[v] for v in vertices], dtype=np.intp)
    if len(network.interior) > DENSE_MAX_ORDER:
        return _symmetric_green(vertices, _banded_columns(network, gauge, kind, sel), kind)
    lap = laplacian(network) if gauge is None else twisted_laplacian(network, gauge)
    rhs = np.zeros((len(lap.interior_order), len(sel)))
    rhs[sel, np.arange(len(sel))] = 1.0
    g = sla.cho_solve(lap.factor, rhs, check_finite=False)[sel]
    return _symmetric_green(vertices, g, kind)


def _banded_columns(network: ElectricalNetwork, gauge: GaugeField | None, kind: str,
                    sel: np.ndarray) -> np.ndarray:
    """The sel x sel block of the inverse (sel: interior indices), from a
    banded factor.

    Reverse Cuthill-McKee renumbers the interior so that the operator A has a
    narrow band (25 on both subdivisions of the 24 x 12 polar annulus); A is
    factored as C C^T, C lower triangular in banded form, and with Y = C^-1 E,
    E the selected vertices' unit columns, the block is E^T A^-1 E = Y^T Y.
    """
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    m = len(network.interior)
    rows, cols, values = _index_arrays(network, gauge, network.interior)
    perm = reverse_cuthill_mckee(coo_array((values, (rows, cols)), shape=(m, m)).tocsr(),
                                 symmetric_mode=True)
    pos = np.argsort(perm)
    r, c = pos[rows], pos[cols]
    low = r >= c
    band = np.zeros((int(np.max(r[low] - c[low])) + 1, m))
    band[r[low] - c[low], c[low]] = values[low]
    try:
        factor = sla.cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise _not_positive_definite(kind, exc) from exc
    rhs = np.zeros((m, len(sel)), order="F")  # dtbtrs then solves in place
    rhs[pos[sel], np.arange(len(sel))] = 1.0
    y, _ = sla.lapack.dtbtrs(factor, rhs, uplo="L", overwrite_b=True)
    return y.T @ y


def cover_laplacian(cover: DoubleCover) -> LaplacianMatrix:
    return _assemble(cover.cover_network, None, "cover")


def cover_green(cover: DoubleCover) -> GreenMatrix:
    return green_of(cover_laplacian(cover))


def det_ratio(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """sqrt(det G_sigma / det G), computed from Laplacian log determinants.

    Always in (0, 1]; equals 1 exactly when no interior cycle has holonomy -1.
    """
    return det_ratio_of(laplacian(network), twisted_laplacian(network, gauge))


def det_ratio_of(lap: LaplacianMatrix, lap_s: LaplacianMatrix) -> float:
    """det_ratio from the untwisted and the twisted Laplacian."""
    return float(np.exp(0.5 * (lap.log_det() - lap_s.log_det())))


def loop_mass(network: ElectricalNetwork) -> float:
    """log(det G * prod W): total measure of loops visiting >= 2 vertices."""
    return loop_mass_of(network, laplacian(network))


def loop_mass_of(network: ElectricalNetwork, lap: LaplacianMatrix) -> float:
    """loop_mass, or twisted_loop_mass, from network's Laplacian lap."""
    lw = sum(np.log(network.weighted_degree(v)) for v in network.interior)
    return float(lw - lap.log_det())


def twisted_loop_mass(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """Same with the twisted Green function; the signed-measure total."""
    return loop_mass_of(network, twisted_laplacian(network, gauge))


def negative_holonomy_mass(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """Loop measure of {holonomy -1}: half the gap between the two masses.

    Satisfies det_ratio = exp(-negative_holonomy_mass).
    """
    return negative_holonomy_mass_of(network, laplacian(network),
                                     twisted_laplacian(network, gauge))


def negative_holonomy_mass_of(network: ElectricalNetwork, lap: LaplacianMatrix,
                              lap_s: LaplacianMatrix) -> float:
    """negative_holonomy_mass from network's untwisted and twisted Laplacian."""
    return 0.5 * (loop_mass_of(network, lap) - loop_mass_of(network, lap_s))


@dataclass(frozen=True)
class CoverGreenReport:
    """Residuals of the sheet-sum and sheet-difference Green identities."""

    residual_untwisted: float  # max |G - (G_11 + G_12)|
    residual_twisted: float    # max |G_sigma - (G_11 - G_12)|
    residual_deck: float       # max |G^db(psi ., psi .) - G^db|


def _sheet_lifts(cov: DoubleCover, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the cover's interior order of the sheet-1 and the sheet-2
    lifts of vertices."""
    idx = cov.cover_network.interior_index
    return tuple(np.array([idx[cov.lift(x, sheet)] for x in vertices], dtype=np.intp)
                 for sheet in (1, 2))


def cover_green_relations(network: ElectricalNetwork, gauge: GaugeField) -> CoverGreenReport:
    """Check G = G11 + G12 and G_sigma = G11 - G12 on the double cover."""
    cov = build_double_cover(network, gauge)
    return cover_green_relations_of(cov, green(network), twisted_green(network, gauge),
                                    cover_green(cov))


def cover_green_relations_of(cov: DoubleCover, g: GreenMatrix, gs: GreenMatrix,
                             gdb: GreenMatrix) -> CoverGreenReport:
    """cover_green_relations from G, G_sigma and the cover's Green matrix."""
    one, two = _sheet_lifts(cov, g.interior_order)
    g11 = gdb.entries[np.ix_(one, one)]
    g12 = gdb.entries[np.ix_(one, two)]
    m = len(g.interior_order)
    res_u = float(np.max(np.abs(g.entries - (g11 + g12)))) if m else 0.0
    res_t = float(np.max(np.abs(gs.entries - (g11 - g12)))) if m else 0.0
    idx = cov.cover_network.interior_index
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
    return subspace_log_determinants_of(cov, cover_laplacian(cov))


def subspace_log_determinants_of(cov: DoubleCover,
                                 lap: LaplacianMatrix) -> tuple[float, float]:
    """subspace_log_determinants from the cover's Laplacian."""
    base_int = cov.base.interior
    one, two = _sheet_lifts(cov, base_int)
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
                              vs: VertexSigns) -> float:
    """max |G_{vs.sigma}(x,y) - vs(x) G_sigma(x,y) vs(y)| over interior pairs."""
    from .gauge import apply_gauge_transform

    return gauge_covariance_residual_of(
        vs, twisted_green(network, gauge),
        twisted_green(network, apply_gauge_transform(vs, gauge)))


def gauge_covariance_residual_of(vs: VertexSigns, gs: GreenMatrix,
                                 gs_vs: GreenMatrix) -> float:
    """gauge_covariance_residual from G_sigma and G_{vs.sigma}."""
    s = np.array([vs.signs[v] for v in gs.interior_order], dtype=float)
    conj = s[:, None] * gs.entries * s[None, :]
    return float(np.max(np.abs(gs_vs.entries - conj))) if conj.size else 0.0
