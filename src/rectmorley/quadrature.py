"""Gauss-Legendre quadrature on the reference box [-1, 1]^dim and its facets.

The 1D and tensor rules are built once per argument and shared: their arrays
are read-only.  Facet rules are built afresh, with arrays of their own.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Tabulated Legendre nodes lose accuracy for very large orders; everything in
# this package integrates polynomials of modest degree, so cap the 1D rule.
MAX_POINTS_1D = 16


@dataclass(frozen=True)
class QuadRule:
    """Point set and weights embedded in dim-dimensional coordinates.

    For volume rules the weights sum to 2**dim.  Facet rules pin one
    coordinate at +-1 and their weights sum to 2**(dim - 1).
    """

    dim: int
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[1] != self.dim:
            raise ValueError("points must have shape (npts, dim)")
        if self.weights.shape != (self.points.shape[0],):
            raise ValueError("weights must have shape (npts,)")

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


def _read_only(dim: int, points: np.ndarray, weights: np.ndarray) -> QuadRule:
    points.flags.writeable = weights.flags.writeable = False
    return QuadRule(dim, points, weights)


def gauss_legendre_1d(n: int) -> QuadRule:
    """Classical n-point Gauss-Legendre rule on [-1, 1], exact to degree 2n - 1."""
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_POINTS_1D:
        raise ValueError(f"point count must be an integer in [1, {MAX_POINTS_1D}], got {n!r}")
    return _gauss_legendre_1d(int(n))


@lru_cache(maxsize=None)
def _gauss_legendre_1d(n: int) -> QuadRule:
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(1, x.reshape(-1, 1), w)


def tensor_rule(dim: int, n_per_axis: int) -> QuadRule:
    """Tensor product of 1D Gauss rules over [-1, 1]^dim."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    line = gauss_legendre_1d(n_per_axis)
    return _tensor_rule(dim, len(line.weights))


# Typed, so that a dimension the builder refuses (a float) is never served
# an equal integer's rule.
@lru_cache(maxsize=None, typed=True)
def _tensor_rule(dim: int, n_per_axis: int) -> QuadRule:
    line = _gauss_legendre_1d(n_per_axis)
    x1 = line.points[:, 0]
    grids = np.meshgrid(*([x1] * dim), indexing="ij")
    # Reverse the stacking order so axis 0 varies fastest in the flat listing.
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)[:, ::-1].copy()
    wgrids = np.meshgrid(*([line.weights] * dim), indexing="ij")
    w = np.ones(pts.shape[0])
    for g in wgrids:
        w = w * g.reshape(-1)
    return _read_only(dim, pts, w)


def facet_rule(dim: int, axis: int, side: int, n_per_axis: int) -> QuadRule:
    """Gauss rule on the facet of [-1, 1]^dim where coordinate `axis` is pinned at `side`.

    Points are returned in full dim-dimensional coordinates.
    """
    if dim < 2:
        raise ValueError("facet rules need dim >= 2")
    if not 0 <= axis < dim:
        raise ValueError(f"axis out of range for dim={dim}: {axis}")
    if side not in (-1, 1):
        raise ValueError(f"side must be -1 or +1, got {side!r}")
    base = tensor_rule(dim - 1, n_per_axis)
    pts = np.empty((base.num_points, dim))
    free = [a for a in range(dim) if a != axis]
    pts[:, free] = base.points
    pts[:, axis] = float(side)
    return QuadRule(dim, pts, base.weights.copy())


def integrate_monomial_box(exponents):
    """Exact integral of prod_i xi_i**e_i over [-1, 1]^dim for the exponent
    tuples e on the last axis of exponents; a float for one tuple.

    Odd exponents integrate to zero; even ones contribute 2 / (e + 1),
    multiplied up axis by axis.
    """
    exps = np.asarray(exponents)
    if exps.size and (exps.dtype.kind not in "iu" or (exps < 0).any()):
        raise ValueError(f"exponents must be nonnegative integers, got {exponents!r}")
    val = np.ones(exps.shape[:-1])
    for axis in range(exps.shape[-1]):
        e = exps[..., axis]
        val = val * np.where(e % 2 == 0, 2.0 / (e + 1), 0.0)
    return float(val) if exps.ndim == 1 else val
