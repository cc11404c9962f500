import itertools

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse.linalg as sla
from scipy import sparse

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


def no_pivot_factor(matrix):
    """SuperLU's L U factor of the symmetric `matrix`, in a minimum-degree
    order of its pattern and asked to pivot on the diagonal only, so that
    the diagonal of U is the D of an L D L^T factor.  A factor that left
    the diagonal pivots (perm_r != perm_c) or met a zero or NaN pivot is
    refused with ValueError."""
    lu = sla.splu(sparse.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(np.abs(pivots) > 0)):
        raise ValueError("the factor left its diagonal pivots or has a zero pivot")
    return lu


def inertia_count(a_mat, m_mat, tau):
    """The number of eigenvalues of the pencil (A, M) below a finite tau: by
    Sylvester's law of inertia, the negative pivots of the no-pivot factor
    of A - tau M, with M positive definite."""
    return int(np.count_nonzero(no_pivot_factor(a_mat - tau * m_mat).U.diagonal() < 0))


def longdouble_negatives(block, tau) -> int:
    """The number of negative eigenvalues of a block of the capacitance
    matrix (capacitance._Block) at tau: its terms summed in np.longdouble,
    and by Sylvester's law of inertia the negative pivots of its L D L^T
    factor without pivoting, in np.longdouble too."""
    tau = np.longdouble(tau)
    terms = block.products.astype(np.longdouble) \
        / (block.poles.astype(np.longdouble) - tau)[:, None]
    matrix = np.zeros(block.size ** 2, dtype=np.longdouble)
    np.add.at(matrix, block.entries.ravel(), terms.ravel())
    matrix = matrix.reshape(block.size, block.size)
    negatives = 0
    for j in range(block.size):
        negatives += int(matrix[j, j] < 0)
        matrix[j + 1:, j + 1:] -= np.outer(matrix[j + 1:, j] / matrix[j, j], matrix[j, j + 1:])
    return negatives


def longdouble_root(block, value, rel=1e-9):
    """The zero of the capacitance block `block` within rel of value, by
    bisection on longdouble_negatives to the resolution of np.longdouble,
    or None when its count of negative eigenvalues does not fall there."""
    lo, hi = np.longdouble(value) * (1 - rel), np.longdouble(value) * (1 + rel)
    below = longdouble_negatives(block, lo)
    if below <= longdouble_negatives(block, hi):
        return None
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return mid
        if longdouble_negatives(block, mid) == below:
            lo = mid
        else:
            hi = mid


# Pencils of at most this order are solved densely by smallest_six: ARPACK
# keeps a basis of 20 vectors (scipy's default for 8 pairs).
SMALLEST_SIX_DENSE_ORDER = 20


def smallest_six(a_mat, m_mat):
    """The 6 smallest eigenvalues of a sparse SPD pencil (A, M), ascending.

    ARPACK finds 8 pairs from the start vector sin(1..order) in
    shift-invert mode at -1, around the no-pivot factor of A + M: the
    pattern of A alone lacks entries of M's, and its minimum-degree order
    fills 8 times more at 2D n=64.  The values are the Rayleigh quotients
    of its vectors: at 2D n=64 simply supported they agree with the
    symbol's eigenvalues to 2.4e-12 relative, ARPACK's own values to only
    4.3e-10.
    """
    order = a_mat.shape[0]
    if order <= SMALLEST_SIX_DENSE_ORDER:
        return dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)[:6]
    factor = no_pivot_factor(a_mat + m_mat)
    _, vectors = sla.eigsh(a_mat, 8, m_mat, sigma=-1.0, v0=np.sin(np.arange(1.0, order + 1)),
                           OPinv=sla.LinearOperator(a_mat.shape, matvec=factor.solve))
    quotients = (np.einsum("ij,ij->j", vectors, a_mat @ vectors)
                 / np.einsum("ij,ij->j", vectors, m_mat @ vectors))
    return np.sort(quotients)[:6]


@pytest.fixture
def refuse_factors(monkeypatch):
    """Fail the test on any SuperLU factor or ARPACK run, the tests' oracles
    included."""
    def refused(*args, **kwargs):
        raise AssertionError("a SuperLU factor or an ARPACK run")

    monkeypatch.setattr(sla, "splu", refused)
    monkeypatch.setattr(sla, "eigsh", refused)


@pytest.fixture(scope="session")
def count_below():
    """The inertia-count oracle: count_below(A, M, tau)."""
    return inertia_count


@pytest.fixture(scope="session")
def capacitance_root():
    """The long-double zero oracle of a capacitance block:
    capacitance_root(block, value, rel=1e-9), see longdouble_root."""
    return longdouble_root


@pytest.fixture(scope="session")
def sparse_oracle():
    """The sparse eigenvalue oracle of large pencils: sparse_oracle(A, M), the
    6 smallest eigenvalues."""
    return smallest_six


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
