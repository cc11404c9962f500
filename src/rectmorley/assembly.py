"""Global assembly: DOF maps, element matrices, fields, and error identities.

Degrees of freedom attach to mesh vertices (point values) and facets (mean
normal derivatives along the global facet normal, which points in the
positive axis direction).  Constrained DOFs are eliminated, not penalized:
clamped boundaries constrain boundary vertices and boundary facets, simply
supported boundaries constrain boundary vertices only.  Free vertices are
numbered before free facets, each in entity order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .element import ReferenceElement, physical_dof_scaling
from .mesh import CartesianMesh
from .operators import DEFAULT_QUAD_ORDER, interpolation_dofs
from .quadrature import tensor_rule

BC_CLAMPED = "clamped"
BC_SIMPLY_SUPPORTED = "simply-supported"
BOUNDARY_CONDITIONS = (BC_CLAMPED, BC_SIMPLY_SUPPORTED)


# ---------------------------------------------------------------------------
# degrees of freedom
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DofMap:
    """Free-DOF numbering for one mesh and boundary condition.

    vertex_dof / facet_dof map entity ids to global free indices, -1 where
    constrained.  cell_dofs and cell_signs hold the gathered numbering per
    element in reference DOF order; facet signs flip where the global facet
    normal is inward for the element.
    """

    mesh: CartesianMesh
    bc: str
    vertex_dof: np.ndarray
    facet_dof: np.ndarray
    cell_dofs: np.ndarray
    cell_signs: np.ndarray
    free_vertices: np.ndarray
    free_facets: np.ndarray

    @property
    def num_free(self) -> int:
        return len(self.free_vertices) + len(self.free_facets)

    @property
    def num_free_vertices(self) -> int:
        return len(self.free_vertices)

    @property
    def num_free_facets(self) -> int:
        return len(self.free_facets)


def build_dof_map(mesh: CartesianMesh, bc: str) -> DofMap:
    """Number the free DOFs and gather the element connectivity."""
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}, got {bc!r}")
    vflags, fflags = mesh.boundary_flags()

    vertex_constrained = vflags
    facet_constrained = fflags if bc == BC_CLAMPED else np.zeros_like(fflags)

    vertex_dof = np.full(mesh.num_vertices, -1, dtype=np.int64)
    free_vertices = np.flatnonzero(~vertex_constrained)
    vertex_dof[free_vertices] = np.arange(len(free_vertices))

    facet_dof = np.full(mesh.num_facets, -1, dtype=np.int64)
    free_facets = np.flatnonzero(~facet_constrained)
    facet_dof[free_facets] = len(free_vertices) + np.arange(len(free_facets))

    facet_ids, facet_signs = mesh.cell_facets()
    cell_dofs = np.concatenate([vertex_dof[mesh.cell_vertices()], facet_dof[facet_ids]], axis=1)
    cell_signs = np.concatenate([np.ones((mesh.num_elements, 2 ** mesh.dim)), facet_signs],
                                axis=1)

    return DofMap(mesh, bc, vertex_dof, facet_dof, cell_dofs, cell_signs,
                  free_vertices, free_facets)


def dof_coordinates(dofmap: DofMap) -> np.ndarray:
    """Doubled integer coordinates of the free DOFs, shape (num_free, dim).

    A vertex sits at 2 * its multi-index; a facet at 2 * its multi-index
    along its normal axis and 2 * multi-index + 1 (its midpoint) across it.
    """
    mesh = dofmap.mesh
    vertices = 2 * mesh.vertex_multi_indices()[dofmap.free_vertices]
    axes, multis = mesh.facet_multi_indices()
    facets = 2 * multis + (np.arange(mesh.dim) != axes[:, None])
    return np.concatenate([vertices, facets[dofmap.free_facets]])


# Boxes with at most this many DOFs are not split further.
ND_LEAF_SIZE = 32


def nested_dissection(dofmap: DofMap) -> np.ndarray:
    """Fill-reducing ordering of the free DOFs by coordinate-plane bisection.

    Each step splits the longest axis of the current box at an even doubled
    coordinate, i.e. a plane through mesh vertices.  The DOFs on that plane
    (its vertices and the facets normal to it) separate the two sides exactly:
    no element touches both, so the stiffness and mass matrices do not couple
    them.  Both sides are ordered recursively and the separator goes last.
    Returns perm with perm[i] the free DOF placed at position i.
    """
    coords = dof_coordinates(dofmap)

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

    return np.concatenate(order(np.arange(dofmap.num_free)))


# ---------------------------------------------------------------------------
# symmetric sparse storage
# ---------------------------------------------------------------------------

class SymmetricSparseMatrix:
    """Sparse symmetric matrix storing only the lower triangle."""

    def __init__(self, lower: sparse.csr_matrix):
        if lower.shape[0] != lower.shape[1]:
            raise ValueError("matrix must be square")
        self.order = lower.shape[0]
        self.lower = lower.tocsr()
        self._full = None

    @classmethod
    def from_full(cls, full, sym_tol: float = 1e-10) -> "SymmetricSparseMatrix":
        full = sparse.csr_matrix(full)
        scale = max(abs(full.max()), abs(full.min()), 1e-300) if full.nnz else 1.0
        asym = abs(full - full.T)
        worst = asym.max() if asym.nnz else 0.0
        if worst > sym_tol * scale:
            raise ValueError(f"matrix is not symmetric (max asymmetry {worst:.3e})")
        return cls(sparse.tril(full, format="csr"))

    @property
    def nnz_stored(self) -> int:
        return self.lower.nnz

    def to_csr(self) -> sparse.csr_matrix:
        if self._full is None:
            diag = sparse.diags(self.lower.diagonal())
            self._full = (self.lower + self.lower.T - diag).tocsr()
        return self._full

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def diagonal(self) -> np.ndarray:
        return self.lower.diagonal()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.to_csr() @ x

    def write_coordinate(self, stream):
        """Write stored lower-triangle entries as '<row> <col> <value>' lines."""
        coo = self.lower.tocoo()
        stream.write(f"% symmetric sparse matrix, lower triangle, order {self.order}\n")
        for i, j, v in zip(coo.row, coo.col, coo.data):
            stream.write(f"{i} {j} {float(v)!r}\n")


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
    """Assemble global stiffness and mass matrices over the free DOFs."""
    ke, me = element_matrices(element, mesh.half_width)
    idx = dofmap.cell_dofs
    sgn = dofmap.cell_signs
    pair_sign = sgn[:, :, None] * sgn[:, None, :]
    keep = (idx[:, :, None] >= 0) & (idx[:, None, :] >= 0)

    rows = np.broadcast_to(idx[:, :, None], keep.shape)[keep]
    cols = np.broadcast_to(idx[:, None, :], keep.shape)[keep]
    vals_a = (pair_sign * ke[None, :, :])[keep]
    vals_m = (pair_sign * me[None, :, :])[keep]

    n = dofmap.num_free
    a_full = sparse.coo_matrix((vals_a, (rows, cols)), shape=(n, n)).tocsr()
    m_full = sparse.coo_matrix((vals_m, (rows, cols)), shape=(n, n)).tocsr()
    return SymmetricSparseMatrix.from_full(a_full), SymmetricSparseMatrix.from_full(m_full)


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
        """Per-element reference basis coefficients, shape (num_elements, ndof).

        Facet entries absorb the orientation sign and the factor h relating
        physical to reference normal derivatives.
        """
        idx = self.dofmap.cell_dofs
        vals = np.where(idx >= 0, self.coeffs[np.clip(idx, 0, None)], 0.0)
        vals = vals * self.dofmap.cell_signs
        vals[:, element.facet_dof_mask] *= self.dofmap.mesh.half_width
        return vals

    def evaluate_on_element(self, element: ReferenceElement, e: int, ref_points,
                            alpha=None) -> np.ndarray:
        """Physical derivative d^alpha of the field on cell e at reference points."""
        dim = self.dofmap.mesh.dim
        alpha = tuple(alpha) if alpha is not None else (0,) * dim
        table = element.eval_basis(alpha, ref_points)
        coeffs = self.local_reference_coefficients(element)[e]
        return (table @ coeffs) / self.dofmap.mesh.half_width ** sum(alpha)

    def export_csv(self, stream):
        """Write free-DOF values as 'kind,entity,value' rows."""
        stream.write("kind,entity,value\n")
        nv = self.dofmap.num_free_vertices
        for k, vid in enumerate(self.dofmap.free_vertices):
            stream.write(f"vertex,{vid},{float(self.coeffs[k])!r}\n")
        for k, fid in enumerate(self.dofmap.free_facets):
            stream.write(f"facet,{fid},{float(self.coeffs[nv + k])!r}\n")


@dataclass(frozen=True)
class GlobalInterpolation:
    """Canonical interpolation of an analytic function onto the free DOFs."""

    field: FemField
    max_constrained_residual: float
    warnings: tuple = ()


def interpolate_global(f, mesh: CartesianMesh, dofmap: DofMap,
                       quad_order: int = DEFAULT_QUAD_ORDER) -> GlobalInterpolation:
    """Fill every free DOF with the matching functional of f.

    Constrained DOFs are checked rather than set: the largest magnitude the
    input carries on them is reported so callers can detect boundary
    incompatibility.
    """
    coeffs = np.zeros(dofmap.num_free)
    worst = 0.0
    for vid in range(mesh.num_vertices):
        val = float(f.value(mesh.vertex_coords(vid)))
        gid = dofmap.vertex_dof[vid]
        if gid >= 0:
            coeffs[gid] = val
        else:
            worst = max(worst, abs(val))

    warnings = ()
    if quad_order < DEFAULT_QUAD_ORDER:
        warnings = (
            f"facet quadrature order {quad_order} is below the configured "
            f"default {DEFAULT_QUAD_ORDER}",
        )
    base = tensor_rule(mesh.dim - 1, quad_order) if mesh.dim > 1 else None
    h = mesh.half_width
    for fid in range(mesh.num_facets):
        axis, center = mesh.facet_geometry(fid)
        phys = np.empty((base.num_points, mesh.dim))
        free_axes = [a for a in range(mesh.dim) if a != axis]
        phys[:, free_axes] = center[free_axes] + h * base.points
        phys[:, axis] = center[axis]
        comp = f.gradient(phys)[:, axis]
        # Mean normal derivative along the global (positive-axis) normal.
        val = comp @ base.weights / 2.0 ** (mesh.dim - 1)
        gid = dofmap.facet_dof[fid]
        if gid >= 0:
            coeffs[gid] = val
        else:
            worst = max(worst, abs(val))
    return GlobalInterpolation(FemField(dofmap, coeffs), worst, warnings)


# ---------------------------------------------------------------------------
# broken inner products and norms
# ---------------------------------------------------------------------------

def _hessian_alphas(dim: int):
    return [
        tuple((x == a) + (x == b) for x in range(dim))
        for a in range(dim)
        for b in range(dim)
    ]


def broken_energy_inner(a, b, mesh: CartesianMesh, element: ReferenceElement,
                        quad_order: int = DEFAULT_QUAD_ORDER) -> float:
    """Cellwise integral of the full Hessian contraction of a and b.

    Both arguments may be FemField or analytic objects exposing .hessian.
    Field/field products are evaluated exactly through the reference
    stiffness matrix; anything analytic goes through Gauss quadrature.
    """
    a_field = isinstance(a, FemField)
    b_field = isinstance(b, FemField)
    h = mesh.half_width
    scale = h ** (mesh.dim - 4)

    if a_field and b_field:
        khat, _ = reference_matrices(element)
        ca = a.local_reference_coefficients(element)
        cb = b.local_reference_coefficients(element)
        return scale * float(np.einsum("ei,ij,ej->", ca, khat, cb))

    if not a_field and not b_field:
        rule = tensor_rule(mesh.dim, quad_order)
        total = 0.0
        for e in range(mesh.num_elements):
            center, _ = mesh.element_geometry(e)
            phys = center + h * rule.points
            ha = a.hessian(phys)
            hb = b.hessian(phys)
            total += np.einsum("qab,qab,q->", ha, hb, rule.weights)
        return total * h ** mesh.dim

    if a_field:
        a, b = b, a  # put the analytic argument first
    rule = tensor_rule(mesh.dim, quad_order)
    alphas = _hessian_alphas(mesh.dim)
    tables = [element.eval_basis(alpha, rule.points) for alpha in alphas]
    coeffs = b.local_reference_coefficients(element)
    total = 0.0
    for e in range(mesh.num_elements):
        center, _ = mesh.element_geometry(e)
        phys = center + h * rule.points
        ha = a.hessian(phys).reshape(rule.num_points, -1)
        for k, table in enumerate(tables):
            hb = (table @ coeffs[e]) / h ** 2
            total += (ha[:, k] * hb) @ rule.weights
    return total * h ** mesh.dim


def l2_norm_analytic(f, mesh: CartesianMesh,
                     quad_order: int = DEFAULT_QUAD_ORDER) -> float:
    rule = tensor_rule(mesh.dim, quad_order)
    h = mesh.half_width
    total = 0.0
    for e in range(mesh.num_elements):
        center, _ = mesh.element_geometry(e)
        vals = f.value(center + h * rule.points)
        total += (vals * vals) @ rule.weights
    return math.sqrt(total * h ** mesh.dim)


def broken_error_norms(f, field: FemField, mesh: CartesianMesh,
                       element: ReferenceElement, orders=(0, 1, 2),
                       quad_order: int = DEFAULT_QUAD_ORDER) -> dict:
    """Broken seminorm of (f - field) for each requested derivative order."""
    if any(l not in (0, 1, 2) for l in orders):
        raise ValueError("seminorm orders must be in {0, 1, 2}")
    rule = tensor_rule(mesh.dim, quad_order)
    h = mesh.half_width
    dim = mesh.dim
    alpha_sets = {
        0: [(0,) * dim],
        1: [tuple(1 if x == a else 0 for x in range(dim)) for a in range(dim)],
        2: _hessian_alphas(dim),
    }
    tables = {
        l: [element.eval_basis(alpha, rule.points) for alpha in alpha_sets[l]]
        for l in orders
    }
    coeffs = field.local_reference_coefficients(element)
    acc = {l: 0.0 for l in orders}
    for e in range(mesh.num_elements):
        center, _ = mesh.element_geometry(e)
        phys = center + h * rule.points
        for l in orders:
            if l == 0:
                exact = [f.value(phys)]
            elif l == 1:
                grad = f.gradient(phys)
                exact = [grad[:, a] for a in range(dim)]
            else:
                hess = f.hessian(phys).reshape(rule.num_points, -1)
                exact = [hess[:, k] for k in range(dim * dim)]
            cell = 0.0
            for table, target in zip(tables[l], exact):
                diff = target - (table @ coeffs[e]) / h ** l
                cell += (diff * diff) @ rule.weights
            acc[l] += cell * h ** dim
    return {l: math.sqrt(acc[l]) for l in orders}


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

    def to_json_dict(self) -> dict:
        return {
            "t1": self.t1,
            "t2": self.t2,
            "t3": self.t3,
            "t4": self.t4,
            "identity_sum": self.identity_sum,
            "lam_gap": self.lam_gap,
            "residual": self.residual,
            "u_norm": self.u_norm,
            "uh_norm": self.uh_norm,
            "constrained_residual": self.constrained_residual,
        }


def eigen_error_identity_terms(lam_exact: float, u, lam_h: float, u_h: FemField,
                               mesh: CartesianMesh, dofmap: DofMap,
                               element: ReferenceElement, A=None, M=None,
                               quad_order: int = DEFAULT_QUAD_ORDER,
                               normalize: bool = True,
                               admissibility_tol: float = 1e-8) -> IdentityTerms:
    """Evaluate the four-term decomposition of lam_exact - lam_h.

    The identity is algebraically exact for a continuous eigenpair (lam, u)
    with ||u|| = 1 and a discrete eigenpair (lam_h, u_h) with unit mass norm;
    the residual reports what quadrature and solver precision leave behind.
    The input u must be admissible: its constrained DOFs have to vanish.
    """
    from .functions import ScaledFunction

    if A is None or M is None:
        A, M = assemble(mesh, dofmap, element)
    m_csr = M.to_csr()

    u_norm = l2_norm_analytic(u, mesh, quad_order)
    if u_norm <= 0:
        raise ValueError("cannot normalize a zero function")
    uh_norm = math.sqrt(float(u_h.coeffs @ (m_csr @ u_h.coeffs)))
    if uh_norm <= 0:
        raise ValueError("cannot normalize a zero discrete field")
    if normalize:
        u = ScaledFunction(u, 1.0 / u_norm)
        u_h = FemField(dofmap, u_h.coeffs / uh_norm)

    interp = interpolate_global(u, mesh, dofmap, quad_order)
    if interp.max_constrained_residual > admissibility_tol:
        raise ValueError(
            "input function is not admissible for this boundary condition "
            f"(constrained-DOF residual {interp.max_constrained_residual:.3e})"
        )
    p = interp.field.coeffs
    c = u_h.coeffs

    err = broken_error_norms(u, u_h, mesh, element, orders=(2,), quad_order=quad_order)
    t1 = err[2] ** 2

    d = p - c
    t2 = -lam_h * float(d @ (m_csr @ d))

    u_sq = l2_norm_analytic(u, mesh, quad_order) ** 2
    t3 = lam_h * (float(p @ (m_csr @ p)) - u_sq)

    a_mixed = broken_energy_inner(u, u_h, mesh, element, quad_order)
    a_interp = float(p @ (A.to_csr() @ c))
    t4 = 2.0 * (a_mixed - a_interp)

    gap = lam_exact - lam_h
    residual = gap - (t1 + t2 + t3 + t4)
    return IdentityTerms(t1, t2, t3, t4, gap, residual, u_norm, uh_norm,
                         interp.max_constrained_residual)
