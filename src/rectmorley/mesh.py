"""Uniform Cartesian meshes of square (2D) or cubic (3D) cells on a box domain.

Entities are numbered lexicographically with axis 0 varying fastest.  Facets
are grouped by normal axis: all facets normal to axis 0 first, then axis 1,
and so on.  Global facet orientation is the positive coordinate direction of
the normal axis; elements see each facet with a sign (+1 when the global
normal is their outward normal, -1 otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import reference_corners

SUPPORTED_DIMS = (2, 3)


def _grid_multi_indices(shape) -> np.ndarray:
    """(count, dim) multi-indices of a lexicographic grid, axis 0 fastest."""
    count = int(np.prod(shape))
    return np.stack(np.unravel_index(np.arange(count), shape, order="F"), axis=1)


@dataclass(frozen=True)
class CartesianMesh:
    dim: int
    n: int
    lower: tuple
    upper: tuple

    # -- sizes ---------------------------------------------------------------

    @property
    def side_length(self) -> float:
        return self.upper[0] - self.lower[0]

    @property
    def cell_width(self) -> float:
        return self.side_length / self.n

    @property
    def half_width(self) -> float:
        """Half the cell width; the scaling parameter of the affine cell map."""
        return 0.5 * self.cell_width

    @property
    def num_vertices(self) -> int:
        return (self.n + 1) ** self.dim

    @property
    def num_elements(self) -> int:
        return self.n ** self.dim

    @property
    def facets_per_axis(self) -> int:
        return (self.n + 1) * self.n ** (self.dim - 1)

    @property
    def num_facets(self) -> int:
        return self.dim * self.facets_per_axis

    # -- incidence ---------------------------------------------------------------

    def vertex_multi_indices(self) -> np.ndarray:
        """Multi-indices of all vertices in id order, shape (num_vertices, dim)."""
        return _grid_multi_indices((self.n + 1,) * self.dim)

    def facet_multi_indices(self):
        """Normal axes and multi-indices of all facets in id order."""
        axes, multis = [], []
        for axis in range(self.dim):
            shape = tuple(self.n + 1 if a == axis else self.n for a in range(self.dim))
            multis.append(_grid_multi_indices(shape))
            axes.append(np.full(self.facets_per_axis, axis))
        return np.concatenate(axes), np.concatenate(multis)

    def cell_vertices(self) -> np.ndarray:
        """Corner vertex ids of every element, shape (num_elements, 2^dim), in
        the corner order of element.reference_corners."""
        cells = _grid_multi_indices((self.n,) * self.dim)
        corners = reference_corners(self.dim) > 0
        strides = (self.n + 1) ** np.arange(self.dim)
        return (cells[:, None, :] + corners[None, :, :]) @ strides

    def cell_centers(self) -> np.ndarray:
        """Center of every element, shape (num_elements, dim); the affine cell
        map is x = center + half_width * xi on the reference cell [-1, 1]^dim."""
        cells = _grid_multi_indices((self.n,) * self.dim)
        return np.asarray(self.lower) + (cells + 0.5) * self.cell_width

    def cell_facets(self) -> np.ndarray:
        """Facet ids of every element, shape (num_elements, 2 dim), in local
        order (axis0-, axis0+, axis1-, ...).  Every element sees them with the
        same signs, -1, +1 per axis: +1 where the global normal is outward."""
        cells = _grid_multi_indices((self.n,) * self.dim)
        ids = []
        for axis in range(self.dim):
            radix = [self.n + 1 if a == axis else self.n for a in range(self.dim)]
            strides = np.cumprod([1] + radix[:-1])
            base = axis * self.facets_per_axis + cells @ strides
            ids += [base, base + strides[axis]]
        return np.stack(ids, axis=1)

    def face_flags(self):
        """Boolean masks (vertex_on_face, facet_on_face), each of shape
        (2 dim, count), faces in the order (axis0 lower, axis0 upper, axis1
        lower, ...).  The facets on a face are those lying in it, which are
        the facets normal to its axis."""
        sides = np.array([0, self.n])
        vmulti = self.vertex_multi_indices()
        vflags = vmulti.T[:, None, :] == sides[None, :, None]
        axes, fmulti = self.facet_multi_indices()
        normal = fmulti[np.arange(self.num_facets), axes]
        fflags = ((axes == np.arange(self.dim)[:, None])[:, None, :]
                  & (normal == sides[:, None])[None, :, :])
        return vflags.reshape(2 * self.dim, -1), fflags.reshape(2 * self.dim, -1)


def build_mesh(dim: int, n: int, domain=None) -> CartesianMesh:
    """Mesh the box `domain` (default unit box) with n cells per axis.

    The element construction needs square cells, so the box must have equal
    extents on every axis.
    """
    if dim not in SUPPORTED_DIMS:
        raise ValueError(f"dim must be one of {SUPPORTED_DIMS}, got {dim!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"cell count per axis must be a positive integer, got {n!r}")
    if domain is None:
        lower = (0.0,) * dim
        upper = (1.0,) * dim
    else:
        lower = tuple(float(x) for x in domain[0])
        upper = tuple(float(x) for x in domain[1])
        if len(lower) != dim or len(upper) != dim:
            raise ValueError("domain bounds must match dim")
    extents = [u - l for l, u in zip(lower, upper)]
    if any(ext <= 0 for ext in extents):
        raise ValueError(f"domain must have positive extent on every axis, got {extents}")
    ref = extents[0]
    if any(abs(ext - ref) > 1e-12 * abs(ref) for ext in extents):
        raise ValueError(f"cells must be square: unequal box extents {extents}")
    return CartesianMesh(int(dim), int(n), lower, upper)
