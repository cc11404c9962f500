"""Rectangular Morley reference element on [-1, 1]^dim.

The shape space is P2 enriched with the pure cubes xi_i**3 (plus the mixed
cube xi_1*xi_2*xi_3 in 3D), giving 8 functions in 2D and 14 in 3D.  Degrees
of freedom are point values at the corners followed by mean outward normal
derivatives over the facets.  The nodal basis comes from inverting the
generalized Vandermonde matrix of the degrees of freedom applied to the
monomial basis, and is kept as one coefficient matrix over the monomial list
of polynomial.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polynomial import (Polynomial, differentiate, facet_moments, multi_indices_up_to,
                         num_monomials, vandermonde)

VERTEX_VALUE = "vertex-value"
FACET_NORMAL_MEAN = "facet-mean-normal-derivative"

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
    """Corners of [-1, 1]^dim with axis 0 toggling fastest."""
    out = np.empty((2 ** dim, dim))
    for c in range(2 ** dim):
        for a in range(dim):
            out[c, a] = 1.0 if (c >> a) & 1 else -1.0
    return out


@dataclass(frozen=True)
class DofFunctional:
    """One degree of freedom: a corner value or a facet mean normal derivative.

    Facet functionals use the outward normal of the reference cell, so
    normal_sign equals the side (+1 or -1) of the pinned coordinate.
    """

    kind: str
    point: tuple = None
    axis: int = None
    side: int = None
    normal_sign: float = None

    def on_monomials(self, dim: int, degree: int) -> np.ndarray:
        """The functional applied to each monomial of degree <= degree, exactly."""
        if self.kind == VERTEX_VALUE:
            return vandermonde(dim, degree, self.point)
        if self.kind == FACET_NORMAL_MEAN:
            alpha = tuple(int(a == self.axis) for a in range(dim))
            normal = differentiate(dim, np.eye(num_monomials(dim, degree)), alpha)
            return self.normal_sign * (normal @ facet_moments(dim, max(degree - 1, 0),
                                                              self.axis, self.side))
        raise ValueError(f"unknown functional kind {self.kind!r}")


def _reference_dofs(dim: int):
    dofs = []
    for corner in reference_corners(dim):
        dofs.append(DofFunctional(kind=VERTEX_VALUE, point=tuple(corner)))
    for axis in range(dim):
        for side in (-1, 1):
            dofs.append(
                DofFunctional(
                    kind=FACET_NORMAL_MEAN,
                    axis=axis,
                    side=side,
                    normal_sign=float(side),
                )
            )
    return tuple(dofs)


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """One per dimension (build_reference_element); compares and hashes by
    identity, so caches can key on it."""

    dim: int
    monomials: tuple
    dofs: tuple
    coeffs: np.ndarray  # [i, k]: weight in basis function i of monomial k (degree <= 3)
    cond: float

    @property
    def ndof(self) -> int:
        return len(self.dofs)

    @property
    def num_vertex_dofs(self) -> int:
        return 2 ** self.dim

    @property
    def facet_dof_mask(self) -> np.ndarray:
        return np.array([d.kind == FACET_NORMAL_MEAN for d in self.dofs])

    @property
    def orientation(self) -> np.ndarray:
        """Sign of each DOF against the global DOF of a uniform mesh: 1 on
        vertices, the outward normal sign on facets (global normals point
        along +axis), the same for every cell."""
        return np.array([1.0 if d.normal_sign is None else d.normal_sign for d in self.dofs])

    @property
    def basis(self) -> tuple:
        """The nodal basis functions, one Polynomial per row of coeffs."""
        return tuple(Polynomial.from_coefficients(self.dim, row) for row in self.coeffs)

    def apply_dof(self, i: int, f: Polynomial) -> float:
        return float(dof_matrix(self.dim, f.bound)[i] @ f.coeffs)


@lru_cache(maxsize=None)
def dof_matrix(dim: int, degree: int) -> np.ndarray:
    """Read-only (ndof, N) matrix of every reference DOF applied to every
    monomial of degree <= degree: the DOFs of a polynomial are matrix @ coeffs."""
    matrix = np.array([dof.on_monomials(dim, degree) for dof in _reference_dofs(dim)])
    matrix.flags.writeable = False
    return matrix


@lru_cache(maxsize=None)
def build_reference_element(dim: int) -> ReferenceElement:
    """Construct the nodal basis and verify unisolvence."""
    if dim not in SHAPE_MONOMIALS:
        raise ValueError(f"dim must be one of {sorted(SHAPE_MONOMIALS)}, got {dim!r}")
    monomials = SHAPE_MONOMIALS[dim]
    dofs = _reference_dofs(dim)
    ndof = len(dofs)
    if len(monomials) != ndof:
        raise AssertionError("shape space dimension must match the DOF count")

    listed = multi_indices_up_to(dim, SHAPE_DEGREE)
    shape_columns = [listed.index(exps) for exps in monomials]
    vand = dof_matrix(dim, SHAPE_DEGREE)[:, shape_columns]
    cond = float(np.linalg.cond(vand))
    if not np.isfinite(cond) or cond > MAX_VANDERMONDE_COND:
        raise ArithmeticError(
            f"degrees of freedom are not unisolvent on the shape space (cond={cond:.3e})"
        )
    coeffs = np.zeros((ndof, len(listed)))
    coeffs[:, shape_columns] = np.linalg.inv(vand).T
    coeffs.flags.writeable = False

    # Nodal property must hold to rounding; fail loudly otherwise.
    err = np.max(np.abs(dof_matrix(dim, SHAPE_DEGREE) @ coeffs.T - np.eye(ndof)))
    if err > 1e-12:
        raise ArithmeticError(f"nodal basis verification failed (max deviation {err:.3e})")

    return ReferenceElement(dim, monomials, dofs, coeffs, cond)


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
