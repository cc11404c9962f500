"""Global assembly: DOF maps, element matrices, fields, and error identities.

One DOF attaches to each entity of the mesh.py numbering: a point value at
a vertex, a mean derivative along the global (positive-axis) normal at a
facet; DOF numbers, constraints and values are one array in that numbering.
Constrained DOFs are eliminated, not penalized.  Each face of the box takes
one condition from FACE_CONSTRAINTS: clamped faces constrain their vertices
and facets, simply supported faces their vertices only, and the mid-plane
faces of a reflection-parity block their facets (even parity) or their
vertices (odd parity).  Free DOFs are numbered in entity-id order, once
per problem or parity block.  cell_operator applies an assembled matrix
cell by cell, without building it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from .element import SHAPE_DEGREE, ReferenceElement, build_reference_element, reference_dof_scale
from .functions import ScaledFunction
from .mesh import CartesianMesh
from .polynomial import derivative_form, tabulate
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

    entity_dof maps each entity id (vertices, then facets, as numbered by
    the mesh) to its global free index, -1 where constrained; build_dof_map
    numbers the free DOFs in id order.  cell_dofs holds the gathered
    numbering per element in reference DOF order,
    entity_dof[mesh.cell_entities].
    """

    mesh: CartesianMesh
    bc: str
    entity_dof: np.ndarray
    cell_dofs: np.ndarray

    @property
    def num_free(self) -> int:
        return int(np.count_nonzero(self.entity_dof >= 0))


def _constrained(mesh: CartesianMesh, bc: str, faces) -> np.ndarray:
    """Constrained flags of all entities, in id order.

    faces gives one FACE_CONSTRAINTS key per face, in the order (axis0
    lower, axis0 upper, axis1 lower, ...); None puts bc on every face.  An
    entity lies in a face when its doubled coordinate on the face's axis is
    0 or 2n, and is a facet when any doubled coordinate is odd.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
    faces = (bc,) * (2 * mesh.dim) if faces is None else tuple(faces)
    if len(faces) != 2 * mesh.dim or not set(faces) <= FACE_CONSTRAINTS.keys():
        raise ValueError(f"faces must hold {2 * mesh.dim} conditions out of "
                         f"{tuple(FACE_CONSTRAINTS)}, got {faces!r}")
    fixes = np.array([FACE_CONSTRAINTS[face] for face in faces])
    coords = mesh.entity_coordinates.T
    on_face = (coords[:, None, :] == np.array([0, 2 * mesh.n])[:, None]).reshape(len(faces), -1)
    facet = reduce(np.bitwise_or, coords) % 2 == 1
    return (on_face & np.where(facet, fixes[:, 1:], fixes[:, :1])).any(axis=0)


def free_dof_count(mesh: CartesianMesh, bc: str, faces=None) -> int:
    """Number of free DOFs of build_dof_map(mesh, bc, faces), without numbering them."""
    return int(np.count_nonzero(~_constrained(mesh, bc, faces)))


def build_dof_map(mesh: CartesianMesh, bc: str, faces=None) -> DofMap:
    """Number the free DOFs in entity-id order (the free vertices, then the
    free facets) and gather the element connectivity.

    Every face gets the boundary condition bc unless faces gives one
    condition per face (see _constrained).
    """
    free = ~_constrained(mesh, bc, faces)

    entity_dof = np.full(mesh.num_entities, -1, dtype=np.int64)
    entity_dof[free] = np.arange(np.count_nonzero(free))
    return DofMap(mesh, bc, entity_dof, entity_dof[mesh.cell_entities])


def dof_coordinates(dofmap: DofMap) -> np.ndarray:
    """Doubled integer coordinates of the free DOFs by DOF number, shape
    (num_free, dim); see CartesianMesh.entity_coordinates."""
    free = dofmap.entity_dof >= 0
    coords = np.empty((dofmap.num_free, dofmap.mesh.dim), dtype=np.int64)
    coords[dofmap.entity_dof[free]] = dofmap.mesh.entity_coordinates[free]
    return coords


# ---------------------------------------------------------------------------
# element matrices and assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def reference_matrices(element: ReferenceElement):
    """Exact stiffness / mass matrices of the nodal basis on the reference cell.

    Each is B F B^T for the basis coefficient matrix B and the derivative_form
    F of the monomials, made exactly symmetric.  Stiffness uses the full
    Frobenius contraction of Hessians (the ordered double sum, so mixed
    derivatives are counted twice).
    """
    dim, basis = element.dim, element.coeffs
    out = []
    for pairs in (tuple((alpha, alpha) for alpha in derivative_alphas(dim, 2)),
                  (((0,) * dim, (0,) * dim),)):
        local = basis @ derivative_form(dim, SHAPE_DEGREE, SHAPE_DEGREE, pairs) @ basis.T
        out.append(0.5 * (local + local.T))
        out[-1].flags.writeable = False
    return tuple(out)


def element_matrices(element: ReferenceElement, h: float):
    """Physical stiffness and mass matrices for a cell of half-width h.

    Physical basis functions are the reference ones times the DOF scale
    factors, so both matrices are sandwiched by diag(1, ..., h, ...).
    """
    khat, mhat = reference_matrices(element)
    scale = reference_dof_scale(element, h)
    ke = (h ** (element.dim - 4)) * (scale[:, None] * khat * scale[None, :])
    me = (h ** element.dim) * (scale[:, None] * mhat * scale[None, :])
    return ke, me


def assemble(mesh: CartesianMesh, dofmap: DofMap, element: ReferenceElement):
    """Assemble global stiffness and mass matrices over the free DOFs.

    Returns canonical CSR matrices (A, M): summed duplicates, sorted indices,
    exactly symmetric, and no stored zeros (entries that cancel are dropped).
    """
    ke, me = element_matrices(element, mesh.half_width)
    idx = dofmap.cell_dofs
    keep = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)

    rows = np.broadcast_to(idx[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(idx[:, None, :], keep.shape)[keep]
    n = dofmap.num_free

    def gather(local):
        mat = sparse.coo_matrix((np.broadcast_to(local, keep.shape)[keep], (rows, cols)),
                                shape=(n, n)).tocsr()
        mat.eliminate_zeros()
        return mat

    return gather(ke), gather(me)


def cell_operator(dofmap: DofMap, local) -> sla.LinearOperator:
    """The matrix that assemble builds from the element matrix `local` on
    dofmap, applied cell by cell without being built: gather each cell's
    DOF values, multiply by `local`, and scatter-add the products (the sums
    are taken in another order than the assembled matrix's)."""
    order = dofmap.num_free
    # A constrained DOF (-1) reads and writes the padding slot `order`.
    cells = np.where(dofmap.cell_dofs >= 0, dofmap.cell_dofs, order)

    def matmat(x):
        padded = np.zeros((order + 1, x.shape[1]))
        padded[:order] = x
        products = local @ padded[cells]
        slots = cells[:, :, None] * x.shape[1] + np.arange(x.shape[1])
        return np.bincount(slots.ravel(), products.ravel(),
                           (order + 1) * x.shape[1]).reshape(order + 1, -1)[:order]

    return sla.LinearOperator((order, order), matvec=lambda x: matmat(x.reshape(order, 1)),
                              matmat=matmat, dtype=float)


def cell_diagonal(dofmap: DofMap, local) -> np.ndarray:
    """The diagonal of the matrix that assemble builds from the element
    matrix `local` on dofmap, summed cell by cell."""
    order = dofmap.num_free
    cells = np.where(dofmap.cell_dofs >= 0, dofmap.cell_dofs, order)
    return np.bincount(cells.ravel(), np.tile(np.diag(local), len(cells)), order + 1)[:order]


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
        return cell_reference_coefficients(padded[self.dofmap.entity_dof],
                                           self.dofmap.mesh, element)


def cell_reference_coefficients(values, mesh: CartesianMesh,
                                element: ReferenceElement) -> np.ndarray:
    """Per-element reference basis coefficients, shape (num_elements, ndof),
    of a function given by its DOF value on every entity, in id order.

    The layout is the element's DOF order: the vertex values, then the facet
    values times h (reference derivatives along +axis), as reference_dof_scale
    gives them.
    """
    return values[mesh.cell_entities] * reference_dof_scale(element, mesh.half_width)


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

    Returns one value per entity in id order; a facet value is the mean
    derivative of f along the global (positive-axis) normal.  The entities
    sit at lower + half_width * entity_coordinates (exact); facet rule points
    reach f as these midpoints plus the scaled facet-rule offsets.
    """
    points = np.asarray(mesh.lower) + mesh.entity_coordinates * mesh.half_width
    nv = mesh.num_vertices
    vals = np.empty(mesh.num_entities)
    vals[:nv] = f.derivatives(derivative_alphas(mesh.dim, 0), points[:nv])[:, 0]

    base = tensor_rule(mesh.dim - 1, QUAD_ORDER)
    for axis in range(mesh.dim):
        offsets = np.insert(mesh.half_width * base.points, axis, 0.0, axis=1)
        normal = derivative_alphas(mesh.dim, 1)[axis:axis + 1]
        first = nv + axis * mesh.facets_per_axis
        for block in _blocks(first, first + mesh.facets_per_axis, base.num_points):
            comp = f.derivatives(normal, points[block], offsets)[..., 0]
            vals[block] = comp @ base.weights / 2.0 ** (mesh.dim - 1)
    return vals


def interpolate_global(f, mesh: CartesianMesh, dofmap: DofMap) -> GlobalInterpolation:
    """Fill every free DOF with the matching functional of f.

    Constrained DOFs are checked rather than set: the largest magnitude the
    input carries on them is reported so callers can detect boundary
    incompatibility.
    """
    vals = entity_values(f, mesh)
    free = dofmap.entity_dof >= 0
    coeffs = np.empty(dofmap.num_free)
    coeffs[dofmap.entity_dof[free]] = vals[free]
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


def broken_integrals(mesh: CartesianMesh, element: ReferenceElement, orders,
                     integrand, *functions) -> dict:
    """For each order in orders, the sum over cells and order-th derivatives
    of integral integrand(d u, d v, ...), as {order: value}.

    Each function is an analytic input (answering derivatives(alphas, x)) or
    per-cell reference coefficients of shape (num_elements, ndof), as returned
    by cell_reference_coefficients.  integrand is applied elementwise: it
    receives one array of shape (cells, points, derivatives) per function,
    each distinct multi-index of derivative_alphas once (in order of first
    appearance), and returns an array of the same shape, whose integral over
    a derivative is counted as often as derivative_alphas lists it (a mixed
    second derivative twice, as in the full Hessian contraction).  All orders
    share one pass over the cells, in blocks of at most BLOCK_POINTS quadrature
    points; an analytic input is evaluated once per block, for the derivatives
    of every order, at the cell centers plus the offsets h * rule points
    (u.derivatives(alphas, centers, offsets))."""
    rule = tensor_rule(mesh.dim, QUAD_ORDER)
    h = mesh.half_width
    counted = [Counter(derivative_alphas(mesh.dim, order)) for order in orders]
    alphas = [list(count) for count in counted]
    weights = [np.fromiter(count.values(), float) for count in counted]
    every_alpha = [alpha for order_alphas in alphas for alpha in order_alphas]
    bounds = np.cumsum([0] + [len(a) for a in alphas])
    # (ndof, points * derivatives): one matmul maps cell coefficients to samples.
    tables = [tabulate(mesh.dim, element.coeffs, a, rule.points).reshape(element.ndof, -1)
              / h ** order for order, a in zip(orders, alphas)]
    centers, offsets = mesh.cell_centers(), h * rule.points
    totals = [0.0] * len(orders)
    for cells in _blocks(0, mesh.num_elements, rule.num_points):
        analytic = [None if isinstance(u, np.ndarray)
                    else u.derivatives(every_alpha, centers[cells], offsets)
                    for u in functions]
        for k, table in enumerate(tables):
            samples = [(u[cells] @ table).reshape(-1, rule.num_points, len(alphas[k]))
                       if values is None else values[..., bounds[k]:bounds[k + 1]]
                       for u, values in zip(functions, analytic)]
            totals[k] += float((rule.weights @ integrand(*samples)).sum(axis=0) @ weights[k])
    return {order: total * h ** mesh.dim for order, total in zip(orders, totals)}


def broken_energy_inner(a, b, mesh: CartesianMesh, element: ReferenceElement) -> float:
    """Cellwise integral of the full Hessian contraction of a and b.

    Both arguments may be FemField or analytic inputs.
    A field's Hessian is linear inside each cell, so a field/field product
    is integrated exactly by the same Gauss rule as everything else.
    """
    a, b = (u.local_reference_coefficients(element) if isinstance(u, FemField) else u
            for u in (a, b))
    return broken_integrals(mesh, element, (2,), np.multiply, a, b)[2]


def l2_norm_analytic(f, mesh: CartesianMesh) -> float:
    element = build_reference_element(mesh.dim)
    return math.sqrt(broken_integrals(mesh, element, (0,), np.square, f)[0])


def broken_error_norms(f, field, mesh: CartesianMesh,
                       element: ReferenceElement, orders=(0, 1, 2)) -> dict:
    """Broken seminorm of (f - field) for each requested derivative order.

    field is a FemField or per-cell reference coefficients (num_elements, ndof).
    """
    if isinstance(field, FemField):
        field = field.local_reference_coefficients(element)

    def squared_error(exact, discrete):
        return (exact - discrete) ** 2

    integrals = broken_integrals(mesh, element, tuple(orders), squared_error, f, field)
    return {l: math.sqrt(integrals[l]) for l in orders}


# ---------------------------------------------------------------------------
# eigenvalue error identity
# ---------------------------------------------------------------------------

# Largest constrained-DOF value of the interpolant of an admissible input.
ADMISSIBILITY_TOL = 1e-8


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


def eigen_error_identity_terms(lam_exact: float, u, lam_h: float, u_h: FemField,
                               mesh: CartesianMesh, dofmap: DofMap,
                               element: ReferenceElement, A, M) -> IdentityTerms:
    """Evaluate the four-term decomposition of lam_exact - lam_h.

    The identity is algebraically exact for a continuous eigenpair (lam, u)
    with ||u|| = 1 and a discrete eigenpair (lam_h, u_h) with unit mass norm
    in the assembled mass matrix M; both inputs are normalized here.  The
    residual reports what quadrature and solver precision leave behind.
    The input u must be admissible: its constrained DOFs have to vanish, to
    within ADMISSIBILITY_TOL.
    """
    u_norm = l2_norm_analytic(u, mesh)
    if u_norm <= 0:
        raise ValueError("cannot normalize a zero function")
    uh_norm = math.sqrt(float(u_h.coeffs @ (M @ u_h.coeffs)))
    if uh_norm <= 0:
        raise ValueError("cannot normalize a zero discrete field")
    u = ScaledFunction(u, 1.0 / u_norm)
    u_h = FemField(dofmap, u_h.coeffs / uh_norm)

    interp = interpolate_global(u, mesh, dofmap)
    if interp.max_constrained_residual > ADMISSIBILITY_TOL:
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
    return IdentityTerms(t1, t2, t3, t4, gap, residual)
