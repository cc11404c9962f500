"""Uniform Cartesian meshes of square (2D) or cubic (3D) cells on a box domain.

Vertices and facets share one entity numbering: all vertices, then all
facets grouped by normal axis (all facets normal to axis 0 first, then axis
1, and so on), each group lexicographic with axis 0 varying fastest.  Every
entity is a point of the doubled grid (entity_coordinates): a vertex has
even coordinates only, a facet is odd on every axis but its normal.  A
facet's DOF differentiates along +axis of its normal, in every element that
holds it as in the global numbering; on an axis-aligned cell the outward
normal derivative is side times this DOF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .element import reference_dof_points

SUPPORTED_DIMS = (2, 3)


def _grid_multi_indices(shape) -> np.ndarray:
    """(dim, count) multi-indices of a lexicographic grid, axis 0 fastest."""
    return np.indices(tuple(shape)[::-1]).reshape(len(shape), -1)[::-1]


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

    @property
    def num_entities(self) -> int:
        return self.num_vertices + self.num_facets

    # -- incidence ---------------------------------------------------------------

    @cached_property
    def entity_coordinates(self) -> np.ndarray:
        """Doubled integer coordinates of all vertices, then all facets, in id
        order, shape (num_entities, dim).

        A vertex sits at 2 * its multi-index; a facet at 2 * its multi-index
        along its normal axis and 2 * multi-index + 1 (its midpoint) across it.
        Built once per mesh, and read-only, as is cell_entities.
        """
        blocks = [2 * _grid_multi_indices((self.n + 1,) * self.dim)]
        for axis in range(self.dim):
            across = np.arange(self.dim) != axis
            blocks.append(2 * _grid_multi_indices(np.where(across, self.n, self.n + 1))
                          + across[:, None])
        coords = np.ascontiguousarray(np.concatenate(blocks, axis=1).T)
        coords.flags.writeable = False
        return coords

    @cached_property
    def cell_entities(self) -> np.ndarray:
        """Entity ids of every element, shape (num_elements, ndof), in the DOF
        order of element.reference_dof_points: the entity at doubled
        coordinates 2 cell + 1 + point.  Reference and global facets share
        the +axis direction, so the map carries no sign."""
        strides = (2 * self.n + 1) ** np.arange(self.dim)
        ids = np.full((2 * self.n + 1) ** self.dim, -1, dtype=np.int64)
        ids[self.entity_coordinates @ strides] = np.arange(self.num_entities)
        cells = strides @ (2 * _grid_multi_indices((self.n,) * self.dim) + 1)
        entities = ids[cells[:, None] + reference_dof_points(self.dim) @ strides]
        entities.flags.writeable = False
        return entities

    def cell_centers(self) -> np.ndarray:
        """Center of every element, shape (num_elements, dim); the affine cell
        map is x = center + half_width * xi on the reference cell [-1, 1]^dim."""
        cells = _grid_multi_indices((self.n,) * self.dim).T
        # C order: analytic inputs evaluate these points through BLAS, whose
        # rounding can depend on the layout.
        return np.ascontiguousarray(np.asarray(self.lower) + (cells + 0.5) * self.cell_width)


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
