"""Rectangular Morley reference element on [-1, 1]^dim.

The shape space is P2 enriched with the pure cubes xi_i**3 (plus the mixed
cube xi_1*xi_2*xi_3 in 3D), giving 8 functions in 2D and 14 in 3D.  The
degrees of freedom have one fixed order: the values at the 2^dim corners,
corner c at reference_corners(dim)[c], then for each axis and each side
-1, +1 the mean outward normal derivative over the facet xi_axis = side,
which is DOF 2^dim + 2 axis + (side > 0).  dof_matrix applies them to the
monomials; the nodal basis comes from inverting that generalized
Vandermonde matrix on the shape monomials, and is kept as one coefficient
matrix over the monomial list of polynomial.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polynomial import (differentiate, facet_moments, multi_indices_up_to,
                         num_monomials, vandermonde)

# The shape functions are cubic: the basis coefficient matrix spans the
# monomials of degree <= SHAPE_DEGREE.
SHAPE_DEGREE = 3

# Unisolvence guard; the actual condition numbers are < 5 in both dimensions.
MAX_VANDERMONDE_COND = 1e8

SHAPE_MONOMIALS = {
    2: (
        (0, 0),
        (1, 0), (0, 1),
        (2, 0), (1, 1), (0, 2),
        (3, 0), (0, 3),
    ),
    3: (
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
        (3, 0, 0), (0, 3, 0), (0, 0, 3),
        (1, 1, 1),
    ),
}


def reference_corners(dim: int) -> np.ndarray:
    """Corners of [-1, 1]^dim, shape (2^dim, dim): xi_a = +1 in corner c
    where bit a of c is set, so axis 0 toggles fastest."""
    return 2.0 * ((np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1) - 1.0


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """The nodal basis of one dimension (build_reference_element), DOFs in
    the order of the module docstring; compares and hashes by identity, so
    caches can key on it."""

    dim: int
    monomials: tuple
    coeffs: np.ndarray  # [i, k]: weight in basis function i of monomial k (degree <= 3)
    cond: float

    @property
    def ndof(self) -> int:
        return 2 ** self.dim + 2 * self.dim

    @property
    def facet_dof_mask(self) -> np.ndarray:
        return np.arange(self.ndof) >= 2 ** self.dim

    @property
    def orientation(self) -> np.ndarray:
        """Sign of each DOF against the global DOF of a uniform mesh: 1 on
        vertices, the outward normal sign on facets (global normals point
        along +axis), the same for every cell."""
        return np.concatenate([np.ones(2 ** self.dim), np.tile([-1.0, 1.0], self.dim)])


@lru_cache(maxsize=None)
def dof_matrix(dim: int, degree: int) -> np.ndarray:
    """Read-only (ndof, N) matrix of every reference DOF applied to every
    monomial of degree <= degree: the DOFs of a polynomial are matrix @ coeffs."""
    rows = list(vandermonde(dim, degree, reference_corners(dim)))
    identity = np.eye(num_monomials(dim, degree))
    for axis in range(dim):
        normal = differentiate(dim, identity, tuple(int(a == axis) for a in range(dim)))
        rows += [side * (normal @ facet_moments(dim, max(degree - 1, 0), axis, side))
                 for side in (-1, 1)]
    # Stacked row by row, so the matrix is C-ordered: the rounding of its
    # products, printed by the verify report, depends on the layout.
    matrix = np.array(rows)
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=None)
def build_reference_element(dim: int) -> ReferenceElement:
    """Construct the nodal basis and verify unisolvence."""
    if dim not in SHAPE_MONOMIALS:
        raise ValueError(f"dim must be one of {sorted(SHAPE_MONOMIALS)}, got {dim!r}")
    monomials = SHAPE_MONOMIALS[dim]
    listed = multi_indices_up_to(dim, SHAPE_DEGREE)
    shape_columns = [listed.index(exps) for exps in monomials]
    dofs = dof_matrix(dim, SHAPE_DEGREE)
    vand = dofs[:, shape_columns]
    if vand.shape[0] != vand.shape[1]:
        raise AssertionError("shape space dimension must match the DOF count")
    cond = float(np.linalg.cond(vand))
    if not np.isfinite(cond) or cond > MAX_VANDERMONDE_COND:
        raise ArithmeticError(
            f"degrees of freedom are not unisolvent on the shape space (cond={cond:.3e})"
        )
    coeffs = np.zeros((len(monomials), len(listed)))
    coeffs[:, shape_columns] = np.linalg.inv(vand).T
    coeffs.flags.writeable = False

    # Nodal property must hold to rounding; fail loudly otherwise.
    err = np.max(np.abs(dofs @ coeffs.T - np.eye(len(monomials))))
    if err > 1e-12:
        raise ArithmeticError(f"nodal basis verification failed (max deviation {err:.3e})")

    return ReferenceElement(dim, monomials, coeffs, cond)


def physical_dof_scaling(element: ReferenceElement, h: float) -> np.ndarray:
    """Scale factors turning reference DOFs into physical ones on a cell of half-width h.

    Vertex values are invariant under the affine map; facet mean normal
    derivatives pick up a factor 1/h.
    """
    if h <= 0:
        raise ValueError(f"half-width must be positive, got {h!r}")
    scale = np.ones(element.ndof)
    scale[element.facet_dof_mask] = 1.0 / h
    return scale
