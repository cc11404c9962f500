"""Global assembly: DOF maps, element matrices, fields, and error identities.

Degrees of freedom attach to mesh vertices (point values) and facets (mean
normal derivatives along the global facet normal, which points in the
positive axis direction).  Constrained DOFs are eliminated, not penalized.
Each face of the box takes one condition from FACE_CONSTRAINTS: clamped
faces constrain their vertices and facets, simply supported faces their
vertices only, and the mid-plane faces of a reflection-parity block their
facets (even parity) or their vertices (odd parity).  Free DOFs are
numbered in nested-dissection order, so the assembled pencil is factored as
it stands.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .element import ReferenceElement, build_reference_element, physical_dof_scaling
from .functions import ScaledFunction
from .mesh import CartesianMesh
from .quadrature import tensor_rule

BC_CLAMPED = "clamped"
BC_SIMPLY_SUPPORTED = "simply-supported"
BOUNDARY_CONDITIONS = (BC_CLAMPED, BC_SIMPLY_SUPPORTED)
# Mid-plane conditions of the half-box problems that carry one reflection
# parity each: an even function has zero normal derivative on its mirror
# plane, an odd one vanishes there.
PARITY_EVEN = "even"
PARITY_ODD = "odd"

# What each face condition constrains: (the vertices on the face, the facets
# lying in it).
FACE_CONSTRAINTS = {
    BC_CLAMPED: (True, True),
    BC_SIMPLY_SUPPORTED: (True, False),
    PARITY_EVEN: (False, True),
    PARITY_ODD: (True, False),
}


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofMap:
    """Free-DOF numbering for one mesh and boundary condition.

    vertex_dof / facet_dof map entity ids to global free indices, -1 where
    constrained; the free DOFs are numbered in nested-dissection order.
    cell_dofs holds the gathered numbering per element in reference DOF
    order.
    """

    mesh: CartesianMesh
    bc: str
    vertex_dof: np.ndarray
    facet_dof: np.ndarray
    cell_dofs: np.ndarray

    @property
    def num_free(self) -> int:
        return int(np.count_nonzero(self.vertex_dof >= 0)
                   + np.count_nonzero(self.facet_dof >= 0))


def _entity_coordinates(mesh: CartesianMesh) -> np.ndarray:
    """Doubled integer coordinates of all vertices, then all facets, in id order.

    A vertex sits at 2 * its multi-index; a facet at 2 * its multi-index
    along its normal axis and 2 * multi-index + 1 (its midpoint) across it.
    """
    axes, multis = mesh.facet_multi_indices()
    facets = 2 * multis + (np.arange(mesh.dim) != axes[:, None])
    return np.concatenate([2 * mesh.vertex_multi_indices(), facets])


# Boxes with at most this many DOFs are not split further.
ND_LEAF_SIZE = 32


def _nested_dissection(coords: np.ndarray) -> np.ndarray:
    """Fill-reducing order of points by coordinate-plane bisection.

    Each step splits the longest axis of the current box at an even doubled
    coordinate, i.e. a plane through mesh vertices.  The DOFs on that plane
    (its vertices and the facets normal to it) separate the two sides exactly:
    no element touches both, so the stiffness and mass matrices do not couple
    them.  Both sides are ordered recursively and the separator goes last.
    Returns order with order[i] the row of coords placed at position i.
    (George, "Nested dissection of a regular finite element mesh", 1973.)
    """
    def order(ids):
        if len(ids) <= ND_LEAF_SIZE:
            return [ids]
        sub = coords[ids]
        lo, hi = sub.min(axis=0), sub.max(axis=0)
        axis = int(np.argmax(hi - lo))
        plane = 2 * ((lo[axis] + hi[axis]) // 4)
        if not lo[axis] < plane < hi[axis]:
            return [ids]
        side = sub[:, axis]
        return (order(ids[side < plane]) + order(ids[side > plane])
                + [ids[side == plane]])

    return np.concatenate(order(np.arange(len(coords))))


def _constrained(mesh: CartesianMesh, bc: str, faces) -> np.ndarray:
    """Constrained flags of all vertices, then all facets, in id order.

    faces gives one FACE_CONSTRAINTS key per face, in the order of
    CartesianMesh.face_flags; None puts bc on every face.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
    faces = (bc,) * (2 * mesh.dim) if faces is None else tuple(faces)
    if len(faces) != 2 * mesh.dim or not set(faces) <= FACE_CONSTRAINTS.keys():
        raise ValueError(f"faces must hold {2 * mesh.dim} conditions out of "
                         f"{tuple(FACE_CONSTRAINTS)}, got {faces!r}")
    fixes = np.array([FACE_CONSTRAINTS[face] for face in faces])
    vflags, fflags = mesh.face_flags()
    return np.concatenate([(vflags & fixes[:, :1]).any(axis=0),
                           (fflags & fixes[:, 1:]).any(axis=0)])


def free_dof_count(mesh: CartesianMesh, bc: str, faces=None) -> int:
    """Number of free DOFs of build_dof_map(mesh, bc, faces), without numbering them."""
    return int(np.count_nonzero(~_constrained(mesh, bc, faces)))


def build_dof_map(mesh: CartesianMesh, bc: str, faces=None) -> DofMap:
    """Number the free DOFs in nested-dissection order and gather the element
    connectivity.

    Every face gets the boundary condition bc unless faces gives one
    condition per face (see _constrained).  The bisection starts from the
    free vertices, then the free facets, each in id order; a box too small
    to split keeps that order.
    """
    free = np.flatnonzero(~_constrained(mesh, bc, faces))

    dofs = np.full(mesh.num_vertices + mesh.num_facets, -1, dtype=np.int64)
    dofs[free[_nested_dissection(_entity_coordinates(mesh)[free])]] = np.arange(len(free))
    vertex_dof, facet_dof = np.split(dofs, [mesh.num_vertices])

    cell_dofs = np.concatenate([vertex_dof[mesh.cell_vertices()],
                                facet_dof[mesh.cell_facets()]], axis=1)
    return DofMap(mesh, bc, vertex_dof, facet_dof, cell_dofs)


def dof_coordinates(dofmap: DofMap) -> np.ndarray:
    """Doubled integer coordinates of the free DOFs by DOF number, shape
    (num_free, dim); see _entity_coordinates."""
    dofs = np.concatenate([dofmap.vertex_dof, dofmap.facet_dof])
    free = dofs >= 0
    coords = np.empty((dofmap.num_free, dofmap.mesh.dim), dtype=np.int64)
    coords[dofs[free]] = _entity_coordinates(dofmap.mesh)[free]
    return coords


# ---------------------------------------------------------------------------
# element matrices and assembly
# ---------------------------------------------------------------------------

_REFERENCE_MATRIX_CACHE: dict = {}


def reference_matrices(element: ReferenceElement):
    """Exact stiffness / mass matrices of the nodal basis on the reference cell.

    Stiffness uses the full Frobenius contraction of Hessians (the ordered
    double sum, so mixed derivatives are counted twice).
    """
    cached = _REFERENCE_MATRIX_CACHE.get(element.dim)
    if cached is not None:
        return cached
    dim, nd = element.dim, element.ndof
    khat = np.zeros((nd, nd))
    mhat = np.zeros((nd, nd))
    second = [
        [[phi.diff(a).diff(b) for b in range(dim)] for a in range(dim)]
        for phi in element.basis
    ]
    for i in range(nd):
        for j in range(i, nd):
            mval = (element.basis[i] * element.basis[j]).integrate_box()
            kval = 0.0
            for a in range(dim):
                for b in range(dim):
                    kval += (second[i][a][b] * second[j][a][b]).integrate_box()
            khat[i, j] = khat[j, i] = kval
            mhat[i, j] = mhat[j, i] = mval
    _REFERENCE_MATRIX_CACHE[element.dim] = (khat, mhat)
    return khat, mhat


def element_matrices(element: ReferenceElement, h: float):
    """Physical stiffness and mass matrices for a cell of half-width h.

    Physical basis functions are the reference ones divided by the DOF scale
    factors, so both matrices are sandwiched by diag(1, ..., h, ...).
    """
    khat, mhat = reference_matrices(element)
    inv_scale = 1.0 / physical_dof_scaling(element, h)
    ke = (h ** (element.dim - 4)) * (inv_scale[:, None] * khat * inv_scale[None, :])
    me = (h ** element.dim) * (inv_scale[:, None] * mhat * inv_scale[None, :])
    return ke, me


def assemble(mesh: CartesianMesh, dofmap: DofMap, element: ReferenceElement):
    """Assemble global stiffness and mass matrices over the free DOFs.

    Returns canonical CSR matrices (A, M): summed duplicates, sorted indices,
    exactly symmetric, and no stored zeros (entries that cancel are dropped).
    """
    ke, me = element_matrices(element, mesh.half_width)
    sgn = element.orientation
    idx = dofmap.cell_dofs
    keep = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)

    rows = np.broadcast_to(idx[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(idx[:, None, :], keep.shape)[keep]
    n = dofmap.num_free

    def gather(local):
        signed = sgn[:, None] * local * sgn[None, :]
        mat = sparse.coo_matrix((np.broadcast_to(signed, keep.shape)[keep], (rows, cols)),
                                shape=(n, n)).tocsr()
        mat.eliminate_zeros()
        return mat

    return gather(ke), gather(me)


# ---------------------------------------------------------------------------
# discrete fields
# ---------------------------------------------------------------------------

@dataclass
class FemField:
    """Coefficients over the free DOFs of a DofMap; constrained DOFs are zero."""

    dofmap: DofMap
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.dofmap.num_free,):
            raise ValueError(
                f"coefficient vector must have length {self.dofmap.num_free}"
            )

    def local_reference_coefficients(self, element: ReferenceElement) -> np.ndarray:
        """Per-element reference basis coefficients, shape (num_elements, ndof);
        see cell_reference_coefficients."""
        # The appended zero is what index -1, a constrained DOF, picks up.
        padded = np.append(self.coeffs, 0.0)
        return cell_reference_coefficients(padded[self.dofmap.vertex_dof],
                                           padded[self.dofmap.facet_dof],
                                           self.dofmap.mesh, element)


def cell_reference_coefficients(vertex_vals, facet_vals, mesh: CartesianMesh,
                                element: ReferenceElement) -> np.ndarray:
    """Per-element reference basis coefficients, shape (num_elements, ndof),
    of a function given by its DOF values on every vertex and facet.

    The layout is the element's DOF order: the vertex values, then the facet
    values times h (reference normal derivatives), all times the local
    orientation sign.
    """
    coeffs = np.concatenate([vertex_vals[mesh.cell_vertices()],
                             facet_vals[mesh.cell_facets()] * mesh.half_width], axis=1)
    coeffs *= element.orientation
    return coeffs


@dataclass(frozen=True)
class GlobalInterpolation:
    """Canonical interpolation of an analytic function onto the free DOFs."""

    field: FemField
    max_constrained_residual: float


# Quadrature points per block of cells (or facets): bounds the work arrays.
BLOCK_POINTS = 4096
# Gauss points per axis of every rule for analytic integrands.
QUAD_ORDER = 8


def _blocks(start: int, stop: int, points_each: int):
    """Slices of start..stop holding at most BLOCK_POINTS points (at least one item)."""
    step = max(1, BLOCK_POINTS // points_each)
    for first in range(start, stop, step):
        yield slice(first, min(first + step, stop))


def entity_values(f, mesh: CartesianMesh):
    """Every DOF functional of f on every mesh entity, constrained or not.

    Returns (vertex values, facet values) in entity id order; a facet value
    is the mean derivative of f along the global (positive-axis) normal.
    """
    lower, width = np.asarray(mesh.lower), mesh.cell_width
    vertex_vals = f.derivatives(derivative_alphas(mesh.dim, 0),
                                lower + mesh.vertex_multi_indices() * width)[:, 0]

    axes, multis = mesh.facet_multi_indices()
    midpoints = lower + (multis + 0.5 * (np.arange(mesh.dim) != axes[:, None])) * width
    base = tensor_rule(mesh.dim - 1, QUAD_ORDER)
    facet_vals = np.empty(mesh.num_facets)
    for axis in range(mesh.dim):
        offsets = np.insert(mesh.half_width * base.points, axis, 0.0, axis=1)
        normal = derivative_alphas(mesh.dim, 1)[axis:axis + 1]
        first = axis * mesh.facets_per_axis
        for block in _blocks(first, first + mesh.facets_per_axis, base.num_points):
            comp = f.derivatives(normal, midpoints[block, None, :] + offsets)[..., 0]
            facet_vals[block] = comp @ base.weights / 2.0 ** (mesh.dim - 1)
    return vertex_vals, facet_vals


def interpolate_global(f, mesh: CartesianMesh, dofmap: DofMap) -> GlobalInterpolation:
    """Fill every free DOF with the matching functional of f.

    Constrained DOFs are checked rather than set: the largest magnitude the
    input carries on them is reported so callers can detect boundary
    incompatibility.
    """
    vals = np.concatenate(entity_values(f, mesh))
    dofs = np.concatenate([dofmap.vertex_dof, dofmap.facet_dof])
    free = dofs >= 0
    coeffs = np.empty(dofmap.num_free)
    coeffs[dofs[free]] = vals[free]
    worst = float(np.max(np.abs(vals[~free]), initial=0.0))
    return GlobalInterpolation(FemField(dofmap, coeffs), worst)


# ---------------------------------------------------------------------------
# broken inner products and norms
# ---------------------------------------------------------------------------

def derivative_alphas(dim: int, order: int) -> list:
    """Multi-indices of all order-th partial derivatives (order 0, 1 or 2), in
    the layout of the value, the gradient and the flattened Hessian (a-major;
    mixed derivatives appear twice, as in the full Hessian contraction)."""
    if order not in (0, 1, 2):
        raise ValueError("seminorm orders must be in {0, 1, 2}")
    return [tuple(pair.count(x) for x in range(dim))
            for pair in itertools.product(range(dim), repeat=order)]


def broken_integral(mesh: CartesianMesh, element: ReferenceElement, order: int,
                    integrand, *functions) -> float:
    """Sum over cells and order-th derivatives of integral integrand(d u, d v, ...).

    Each function is an analytic input (answering derivatives(alphas, x)) or per-cell
    reference coefficients of shape (num_elements, ndof), as returned by
    cell_reference_coefficients.  integrand receives one array of
    shape (cells, points, derivatives) per function, the derivatives in
    derivative_alphas order, and returns an array of the same shape.  Cells
    are processed in blocks of at most BLOCK_POINTS quadrature points.
    """
    rule = tensor_rule(mesh.dim, QUAD_ORDER)
    h = mesh.half_width
    alphas = derivative_alphas(mesh.dim, order)
    # (ndof, points * derivatives): one matmul maps cell coefficients to samples.
    table = np.stack([element.eval_basis(alpha, rule.points).T for alpha in alphas],
                     axis=-1).reshape(element.ndof, -1) / h ** order
    sample_shape = (rule.num_points, len(alphas))
    centers = mesh.cell_centers()
    total = 0.0
    for cells in _blocks(0, mesh.num_elements, rule.num_points):
        points = centers[cells, None, :] + h * rule.points
        samples = [(u[cells] @ table).reshape(-1, *sample_shape) if isinstance(u, np.ndarray)
                   else u.derivatives(alphas, points) for u in functions]
        total += float((rule.weights @ integrand(*samples)).sum())
    return total * h ** mesh.dim


def broken_energy_inner(a, b, mesh: CartesianMesh, element: ReferenceElement) -> float:
    """Cellwise integral of the full Hessian contraction of a and b.

    Both arguments may be FemField or analytic inputs.
    A field's Hessian is linear inside each cell, so a field/field product
    is integrated exactly by the same Gauss rule as everything else.
    """
    a, b = (u.local_reference_coefficients(element) if isinstance(u, FemField) else u
            for u in (a, b))
    return broken_integral(mesh, element, 2, np.multiply, a, b)


def l2_norm_analytic(f, mesh: CartesianMesh) -> float:
    element = build_reference_element(mesh.dim)
    return math.sqrt(broken_integral(mesh, element, 0, np.square, f))


def broken_error_norms(f, field, mesh: CartesianMesh,
                       element: ReferenceElement, orders=(0, 1, 2)) -> dict:
    """Broken seminorm of (f - field) for each requested derivative order.

    field is a FemField or per-cell reference coefficients (num_elements, ndof).
    """
    if isinstance(field, FemField):
        field = field.local_reference_coefficients(element)

    def squared_error(exact, discrete):
        return (exact - discrete) ** 2

    return {l: math.sqrt(broken_integral(mesh, element, l, squared_error, f, field))
            for l in orders}


# ---------------------------------------------------------------------------
# eigenvalue error identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityTerms:
    """Exact decomposition of the eigenvalue gap into four computable terms.

    t1 = |u - u_h|_h^2                      (broken Hessian seminorm squared)
    t2 = -lam_h ||Pi_h u - u_h||^2          (mass norm)
    t3 =  lam_h (||Pi_h u||^2 - ||u||^2)    (mass norm vs. L2 norm)
    t4 =  2 a_h(u - Pi_h u, u_h)
    residual = (lam - lam_h) - (t1 + t2 + t3 + t4)
    """

    t1: float
    t2: float
    t3: float
    t4: float
    lam_gap: float
    residual: float
    u_norm: float
    uh_norm: float
    constrained_residual: float

    @property
    def identity_sum(self) -> float:
        return self.t1 + self.t2 + self.t3 + self.t4


def eigen_error_identity_terms(lam_exact: float, u, lam_h: float, u_h: FemField,
                               mesh: CartesianMesh, dofmap: DofMap,
                               element: ReferenceElement, A=None, M=None,
                               normalize: bool = True,
                               admissibility_tol: float = 1e-8) -> IdentityTerms:
    """Evaluate the four-term decomposition of lam_exact - lam_h.

    The identity is algebraically exact for a continuous eigenpair (lam, u)
    with ||u|| = 1 and a discrete eigenpair (lam_h, u_h) with unit mass norm;
    the residual reports what quadrature and solver precision leave behind.
    The input u must be admissible: its constrained DOFs have to vanish.
    """
    if A is None or M is None:
        A, M = assemble(mesh, dofmap, element)

    u_norm = l2_norm_analytic(u, mesh)
    if u_norm <= 0:
        raise ValueError("cannot normalize a zero function")
    uh_norm = math.sqrt(float(u_h.coeffs @ (M @ u_h.coeffs)))
    if uh_norm <= 0:
        raise ValueError("cannot normalize a zero discrete field")
    if normalize:
        u = ScaledFunction(u, 1.0 / u_norm)
        u_h = FemField(dofmap, u_h.coeffs / uh_norm)

    interp = interpolate_global(u, mesh, dofmap)
    if interp.max_constrained_residual > admissibility_tol:
        raise ValueError(
            "input function is not admissible for this boundary condition "
            f"(constrained-DOF residual {interp.max_constrained_residual:.3e})"
        )
    p = interp.field.coeffs
    c = u_h.coeffs

    err = broken_error_norms(u, u_h, mesh, element, orders=(2,))
    t1 = err[2] ** 2

    d = p - c
    t2 = -lam_h * float(d @ (M @ d))

    u_sq = l2_norm_analytic(u, mesh) ** 2
    t3 = lam_h * (float(p @ (M @ p)) - u_sq)

    a_mixed = broken_energy_inner(u, u_h, mesh, element)
    a_interp = float(p @ (A @ c))
    t4 = 2.0 * (a_mixed - a_interp)

    gap = lam_exact - lam_h
    residual = gap - (t1 + t2 + t3 + t4)
    return IdentityTerms(t1, t2, t3, t4, gap, residual, u_norm, uh_norm,
                         interp.max_constrained_residual)
