import itertools

import numpy as np
import pytest

from rectmorley.cli import solve_problem
from rectmorley.element import build_reference_element


@pytest.fixture(scope="session")
def ref2():
    return build_reference_element(2)


@pytest.fixture(scope="session")
def ref3():
    return build_reference_element(3)


@pytest.fixture(scope="session")
def solve_cached():
    """Memoized (dim, n, bc, k, solver) -> cli.Solution; shared across tests."""
    cache = {}

    def get(dim, n, bc, k=6, solver="auto"):
        key = (dim, n, bc, k, solver)
        if key not in cache:
            cache[key] = solve_problem(dim, n, bc, k=k, solver=solver)
        return cache[key]

    return get


def _in_id_order(shape):
    """Multi-indices of a grid listed the way the mesh numbers them: axis 0 fastest."""
    return [m[::-1] for m in itertools.product(*(range(s) for s in shape[::-1]))]


class EntityIds:
    """Per-entity oracle of a mesh's numbering, by enumeration of the rules in
    the rectmorley.mesh docstring: all vertices, then all facets grouped by
    normal axis, each group listed lexicographically with axis 0 fastest.

    cells[e] is the multi-index of element e; vertex[m] is the entity id of
    the vertex with multi-index m; facet[axis, m] the entity id of the facet
    normal to axis whose multi-index is m (m[axis] in 0..n, the others in
    0..n-1).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        n, dim = mesh.n, mesh.dim
        self.cells = _in_id_order((n,) * dim)
        self.vertex = {m: v for v, m in enumerate(_in_id_order((n + 1,) * dim))}
        self.facet = {}
        for axis in range(dim):
            shape = tuple(n + 1 if a == axis else n for a in range(dim))
            for m in _in_id_order(shape):
                self.facet[axis, m] = len(self.vertex) + len(self.facet)

    def vertices_of(self, e):
        """Corner vertex ids of element e, axis 0 toggling fastest."""
        cell = self.cells[e]
        return [self.vertex[tuple(c + d for c, d in zip(cell, offset[::-1]))]
                for offset in itertools.product((0, 1), repeat=len(cell))]

    def facets_of(self, e):
        """(facet entity id, side) of element e in local order (axis0-, axis0+, ...);
        the facet lies at xi_axis = side, so its outward normal derivative is
        side times its DOF, which points along +axis."""
        cell = self.cells[e]
        out = []
        for axis in range(len(cell)):
            for upper, side in ((0, -1), (1, 1)):
                m = tuple(c + upper * (a == axis) for a, c in enumerate(cell))
                out.append((self.facet[axis, m], side))
        return out

    def coordinates(self):
        """Doubled integer coordinates of every entity, in id order: 2 m for a
        vertex, 2 m plus 1 across the normal axis for a facet."""
        coords = [None] * (len(self.vertex) + len(self.facet))
        for m, v in self.vertex.items():
            coords[v] = [2 * c for c in m]
        for (axis, m), f in self.facet.items():
            coords[f] = [2 * c + (a != axis) for a, c in enumerate(m)]
        return np.array(coords)

    def point(self, m, shift=0.0):
        """Physical point of grid coordinates m + shift (in cell widths)."""
        return np.asarray(self.mesh.lower) + (np.asarray(m) + shift) * self.mesh.cell_width

    def center(self, e):
        return self.point(self.cells[e], 0.5)

    def facet_midpoint(self, axis, m):
        return self.point(m, 0.5 * (np.arange(self.mesh.dim) != axis))


@pytest.fixture(scope="session")
def entity_ids():
    """EntityIds, the per-entity numbering oracle: entity_ids(mesh)."""
    return EntityIds
