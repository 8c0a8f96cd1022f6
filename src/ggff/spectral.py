"""Laplacians, Green functions, and the closed-form determinant identities.

Operators are restricted to the interior vertices in sorted-id order, with
zero boundary conditions, and are read and written in that order.  A
LaplacianMatrix holds its nonzero entries as index arrays and one cached
Cholesky factor, which every quantity of it reads: the positive-definiteness
check, the log determinant, blocks of the inverse, Gaussian fields of
covariance the inverse and the loop-soup sampler's row sums and hitting
probabilities.  The factor is dense up to DENSE_MAX_ORDER interior vertices
and banded above it, where no dense matrix is formed.
Determinants are accumulated as log determinants, so ratios never overflow.
The `*_of` forms take operators already factored, so that a caller needing
several quantities of one operator factors it once; a Green matrix is formed
in full only where all its entries are used.  The factor's order follows its
route alone: the sorted interior reversed when dense, reverse Cuthill-McKee
when banded.  laplacian and twisted_laplacian factor L and L_sigma once per
network and gauge and cache them there, for closed forms and samplers alike.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from .cover import DoubleCover, build_double_cover
from .gauge import apply_gauge_transform
from .network import ElectricalNetwork, GaugeField, InvalidNetworkError, VertexSigns, cached_on

# operators up to this order are factored densely and larger ones in banded
# form; measured crossover, one BLAS thread: order 256 dense 1.8 ms vs banded
# 2.1 ms, order 464 dense 7.3 ms vs banded 3.5 ms
DENSE_MAX_ORDER = 1000

# columns of the inverse solved at once by inverse_diagonal and banded inverse
_DIAGONAL_BLOCK = 64

# entries per row block in which banded color fills and reads its solve's
# Fortran-order array: np.take into or out of one allocates a full temporary
_COLOR_BLOCK = 1 << 16


@dataclass(frozen=True)
class LaplacianMatrix:
    """Interior block of -Laplacian: diagonal W(x), off-diagonal -sigma*C.

    Held as its nonzero entries, at positions (rows, cols) in interior_order,
    which every method takes and returns.  Its factor C C^T holds position i
    in row pos[i]: reversed when dense, by reverse Cuthill-McKee when banded.
    """

    interior_order: tuple[str, ...]
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    kind: str  # "untwisted" | "twisted" | "cover"

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix, formed anew on each read."""
        a = np.zeros((len(self.interior_order), len(self.interior_order)))
        a[self.rows, self.cols] = self.values
        return a

    @cached_property
    def factor(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """(c, pos, banded), its arrays read-only.  Up to DENSE_MAX_ORDER, c is
        cho_factor's array, whose lower triangle is C; above it, c[k, j] = C[j + k, j]."""
        m = len(self.interior_order)
        banded = m > DENSE_MAX_ORDER
        try:
            if not banded:  # the reversal, which is its own inverse
                pos = np.arange(m)[::-1]
                c = sla.cho_factor(self.entries[np.ix_(pos, pos)], lower=True)[0]
            else:
                from scipy.sparse import coo_array  # only the banded route needs scipy.sparse
                from scipy.sparse.csgraph import reverse_cuthill_mckee
                pos = np.argsort(reverse_cuthill_mckee(
                    coo_array((self.values, (self.rows, self.cols)), shape=(m, m)).tocsr(),
                    symmetric_mode=True))
                r, c = pos[self.rows], pos[self.cols]
                low = r >= c
                band = np.zeros((int(np.max(r[low] - c[low])) + 1, m))
                band[r[low] - c[low], c[low]] = self.values[low]
                c = sla.cholesky_banded(band, lower=True, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise InvalidNetworkError(
                [f"{self.kind} Laplacian is not positive definite: {exc}"]) from exc
        c.flags.writeable = pos.flags.writeable = False
        return c, pos, banded

    def cholesky(self) -> np.ndarray:
        """C as a dense matrix, its rows in the factor's order."""
        c, pos, banded = self.factor
        return np.tril(c) if not banded else sum(
            np.diag(c[k, :len(pos) - k], -k) for k in range(len(c)))

    def log_det(self) -> float:
        c, _, banded = self.factor
        return 2.0 * float(np.sum(np.log(c[0] if banded else np.diag(c))))

    def inverse(self, sel: np.ndarray | None = None) -> np.ndarray:
        """The sel x sel block of the inverse (sel: positions in interior_order),
        or all of it.  Dense: all of it by dpotri, mirrored, so exactly symmetric;
        a block by cho_solve.  Banded: E^T A^-1 E = Y^T Y, E the selected unit
        columns, Y = C^-1 E, which is 0.0 above each unit row: _DIAGONAL_BLOCK
        columns at a time, in the factor's order, solve from their first one on;
        numpy forms Y^T Y as one symmetric rank-k update, so exactly symmetric."""
        c, pos, banded = self.factor
        m, rows = len(pos), pos if sel is None else pos[sel]
        if sel is None and not banded:  # half the flops of a solve against the identity
            x = sla.lapack.dpotri(c, lower=1)[0]
            return np.where(np.tri(m, dtype=bool), x, x.T)[np.ix_(pos, pos)]
        y = np.zeros((m, len(rows)), order="F")
        if not banded:
            y[rows, np.arange(len(rows))] = 1.0
            return sla.cho_solve((c, True), y, check_finite=False)[rows]
        order = np.argsort(rows, kind="stable")
        for j in range(0, len(rows), _DIAGONAL_BLOCK):
            cols = order[j:j + _DIAGONAL_BLOCK]
            r0 = rows[cols[0]]
            b = np.zeros((m - r0, len(cols)), order="F")  # dtbtrs solves in place
            b[rows[cols] - r0, np.arange(len(cols))] = 1.0
            y[r0:, cols] = sla.lapack.dtbtrs(c[:, r0:], b, uplo="L", overwrite_b=True)[0]
        return y.T @ y

    @cached_property
    def inverse_diagonal(self) -> np.ndarray:
        """The inverse's diagonal by position in interior_order, read-only,
        solved on first read for _DIAGONAL_BLOCK columns at a time, in the
        factor's order."""
        sel, b = np.argsort(self.factor[1]), _DIAGONAL_BLOCK
        diagonal = np.concatenate([np.diag(self.inverse(sel[j:j + b]))
                                   for j in range(0, len(sel), b)])[self.factor[1]]
        diagonal.flags.writeable = False
        return diagonal

    @cached_property
    def inverse_factor(self) -> np.ndarray | None:
        """C^-1, read-only, from one triangular inversion on the dense route,
        built on first read, which no closed form makes; None on the banded
        route, where it would be a dense m x m array.  A sampler reads it
        before its worker threads start, so that they only read it."""
        if self.factor[2]:
            return None
        inv, _ = sla.lapack.dtrtri(np.tril(self.factor[0]), lower=1, overwrite_c=1)
        inv.flags.writeable = False
        return inv

    def hitting_probabilities(self, s: int | np.ndarray) -> np.ndarray:
        """For the walk killed at the boundary and at every vertex after
        interior_order[s] in the factor's order (dense, the reversal: every
        vertex before it in sorted order), the chance from each vertex,
        by position in interior_order, of reaching interior_order[s]; 0.0
        exactly where it is killed.  With q = pos[s], the leading q + 1 rows of
        C factor the operator on the vertices not killed, so this is row q of
        diag(C) C^-1.  An array s gives one such column per position.  Dense,
        the rows are one gather from inverse_factor, each scaled by its
        c[q, q]; banded, each position is one transposed solve in the band."""
        c, pos, banded = self.factor
        q = pos[s]
        if not banded:
            return (c[q, q, None] * self.inverse_factor[q])[..., pos].T
        if q.ndim:
            return np.stack([self.hitting_probabilities(t) for t in s], axis=-1)
        rhs = np.zeros((q + 1, 1))
        rhs[q] = c[0, q]
        y, _ = sla.lapack.dtbtrs(c[:, :q + 1], rhs, uplo="L", trans="T", overwrite_b=True)
        return np.concatenate((y[:, 0], np.zeros(len(pos) - q - 1)))[pos]

    def color(self, z: np.ndarray) -> np.ndarray:
        """W z by position in interior_order, W = P^T C^-T P^T with P^T x = x[pos],
        so that W W^T = A^-1: for standard normal z, columns of covariance A^-1.
        Dense, a product with inverse_factor; banded, one transposed solve in
        the band, in place in a Fortran-order copy in the factor's order,
        filled and read by row blocks: beside z and the result it holds one
        (m, n) array.  A stack z of shape (k, m, n) is coloured with matmul
        semantics, each item to the bit as alone: by the same product, which
        matmul runs item by item, or by its own solve."""
        c, pos, banded = self.factor
        if not banded:  # contiguous operands multiply fastest
            return np.take(self.inverse_factor.T @ np.take(z, pos, axis=-2), pos, axis=-2)
        out = np.empty(z.shape)
        m, n = z.shape[-2:]
        rows, b = max(1, _COLOR_BLOCK // max(n, 1)), np.empty((m, n), order="F")
        for item, res in zip(z.reshape(-1, m, n), out.reshape(-1, m, n)):
            for r0 in range(0, m, rows):
                b[r0:r0 + rows] = item[pos[r0:r0 + rows]]
            sla.lapack.dtbtrs(c, b, uplo="L", trans="T", overwrite_b=True)
            for r0 in range(0, m, rows):
                res[r0:r0 + rows] = b[pos[r0:r0 + rows]]
        return out

    def below_diagonal_squares(self) -> np.ndarray:
        """Row sums of squares of C below its diagonal, by position in interior_order."""
        c, pos, banded = self.factor
        if not banded:
            below = np.tril(c, -1)
            return np.einsum("ij,ij->i", below, below)[pos]
        out = np.zeros(len(pos))
        for k in range(1, len(c)):
            out[k:] += c[k, :-k] ** 2
        return out[pos]


@dataclass(frozen=True)
class GreenMatrix:
    interior_order: tuple[str, ...]
    entries: np.ndarray
    kind: str

    def value(self, x: str, y: str) -> float:
        return float(self.entries[self.interior_order.index(x), self.interior_order.index(y)])


def _assemble(network: ElectricalNetwork, gauge: GaugeField | None, kind: str) -> LaplacianMatrix:
    """The diagonal W(x), then each of network.interior_edges both ways."""
    _, u, v, c = network.interior_edges
    w = -c if gauge is None else -(gauge.interior_signs * c)
    d = np.arange(len(network.interior), dtype=np.intp)
    lap = LaplacianMatrix(network.interior, np.concatenate((d, u, v)), np.concatenate((d, v, u)),
                          np.concatenate((network.interior_degrees, w, w)), kind)
    lap.factor  # positive definiteness is part of the contract
    return lap


def laplacian(network: ElectricalNetwork) -> LaplacianMatrix:
    """L: assembled and factored on first use and cached on network."""
    return cached_on(network, "_laplacian", lambda: _assemble(network, None, "untwisted"))


def twisted_laplacian(network: ElectricalNetwork, gauge: GaugeField) -> LaplacianMatrix:
    """L_sigma: assembled and factored on first use and cached on gauge."""
    if gauge.network != network:
        raise ValueError("gauge field belongs to a different network")
    return cached_on(gauge, "_laplacian", lambda: _assemble(network, gauge, "twisted"))


def green_of(lap: LaplacianMatrix) -> GreenMatrix:
    """The full inverse of a Laplacian, from its cached factor, exactly symmetric on both routes."""
    return GreenMatrix(lap.interior_order, lap.inverse(), lap.kind)


def green(network: ElectricalNetwork) -> GreenMatrix:
    """Inverse of the interior -Laplacian block (zero boundary conditions)."""
    return green_of(laplacian(network))


def twisted_green(network: ElectricalNetwork, gauge: GaugeField) -> GreenMatrix:
    """Inverse of the twisted block; off-diagonal entries may be negative."""
    return green_of(twisted_laplacian(network, gauge))


def restricted_green(network: ElectricalNetwork, vertices,
                     gauge: GaugeField | None = None) -> GreenMatrix:
    """G, or G_sigma when a gauge is given, on vertices x vertices.

    Reads the cached Laplacian's factor and solves only for the listed
    vertices' columns, so the full inverse is never formed.  Equals the
    matching block of green() or twisted_green().
    """
    vertices = tuple(vertices)
    lap = laplacian(network) if gauge is None else twisted_laplacian(network, gauge)
    sel = np.array([network.interior_index[v] for v in vertices], dtype=np.intp)
    g = lap.inverse(sel)  # a dense route's block, from cho_solve, is not exactly symmetric
    return GreenMatrix(vertices, 0.5 * (g + g.T), lap.kind)


def cover_laplacian(cover: DoubleCover) -> LaplacianMatrix:
    """The cover's L: laplacian of its network, cached there."""
    return laplacian(cover.cover_network)


def cover_green(cover: DoubleCover) -> GreenMatrix:
    return green_of(cover_laplacian(cover))


def det_ratio(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """sqrt(det G_sigma / det G), computed from Laplacian log determinants.

    Always in (0, 1]; equals 1 exactly when no interior cycle has holonomy -1.
    """
    return float(np.exp(0.5 * (laplacian(network).log_det()
                               - twisted_laplacian(network, gauge).log_det())))


def loop_mass(network: ElectricalNetwork) -> float:
    """log(det G * prod W): total measure of loops visiting >= 2 vertices."""
    lap = laplacian(network)  # refuses a non-positive-definite L before any log
    return float(sum(np.log(network.interior_degrees)) - lap.log_det())


def twisted_loop_mass(network: ElectricalNetwork, gauge: GaugeField) -> float:
    """Same with the twisted Green function; the signed-measure total."""
    lap = twisted_laplacian(network, gauge)
    return float(sum(np.log(network.interior_degrees)) - lap.log_det())


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


def cover_green_relations(network: ElectricalNetwork, gauge: GaugeField) -> CoverGreenReport:
    """Check G = G11 + G12 and G_sigma = G11 - G12 on the double cover."""
    cov = build_double_cover(network, gauge)
    return cover_green_relations_of(cov, green(network), twisted_green(network, gauge),
                                    cover_green(cov))


def cover_green_relations_of(cov: DoubleCover, g: GreenMatrix, gs: GreenMatrix,
                             gdb: GreenMatrix) -> CoverGreenReport:
    """cover_green_relations from G, G_sigma and the cover's Green matrix."""
    one, two = cov.interior_lifts
    g11 = gdb.entries[np.ix_(one, one)]
    g12 = gdb.entries[np.ix_(one, two)]
    res_u = float(np.max(np.abs(g.entries - (g11 + g12)), initial=0.0))
    res_t = float(np.max(np.abs(gs.entries - (g11 - g12)), initial=0.0))
    deck = np.empty(len(gdb.interior_order), dtype=np.intp)  # swaps each vertex's two lifts
    deck[one], deck[two] = two, one
    res_d = float(np.max(np.abs(gdb.entries[np.ix_(deck, deck)] - gdb.entries), initial=0.0))
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
    """subspace_log_determinants from the cover Laplacian's entries, each
    block entry 0.5 * ((A11 + A22) +- (A12 + A21)): no 2m x 2m array."""
    one, two = cov.interior_lifts
    m, lift = len(one), np.empty(2 * len(one), dtype=np.intp)
    lift[np.concatenate((one, two))] = np.arange(2 * m)  # sheet * m + base position
    (sr, br), (sc, bc) = np.divmod(lift[lap.rows], m), np.divmod(lift[lap.cols], m)
    pairs, at = np.unique(br * m + bc, return_inverse=True)  # row-major, as np.nonzero
    a = np.zeros((4, len(pairs)))  # A11, A12, A21, A22 on each base pair; absent: 0.0
    a[2 * sr + sc, at] = lap.values
    same, cross = a[0] + a[3], a[1] + a[2]
    return tuple(LaplacianMatrix(cov.base.interior, *np.divmod(pairs[b != 0], m), b[b != 0],
                                 "cover").log_det() for b in (0.5 * (same + cross), 0.5 * (same - cross)))


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
    return gauge_covariance_residual_of(
        vs, twisted_green(network, gauge),
        twisted_green(network, apply_gauge_transform(vs, gauge)))


def gauge_covariance_residual_of(vs: VertexSigns, gs: GreenMatrix,
                                 gs_vs: GreenMatrix) -> float:
    """gauge_covariance_residual from G_sigma and G_{vs.sigma}."""
    s = np.array([vs.signs[v] for v in gs.interior_order], dtype=float)
    conj = s[:, None] * gs.entries * s[None, :]
    return float(np.max(np.abs(gs_vs.entries - conj))) if conj.size else 0.0
