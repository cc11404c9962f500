import itertools
import math

import numpy as np
import pytest
from scipy.linalg import cholesky

from rectmorley import assembly, cli
from rectmorley.assembly import (BC_CLAMPED, BC_SIMPLY_SUPPORTED, BLOCK_POINTS,
                                 PARITY_EVEN, PARITY_ODD, QUAD_ORDER, FemField, assemble,
                                 broken_energy_inner, broken_error_norms, broken_integrals,
                                 build_dof_map, eigen_error_identity_terms,
                                 element_matrices, free_dof_count,
                                 interpolate_global, l2_norm_analytic, nested_dissection,
                                 reference_matrices, restricted_dofs)
from rectmorley.eigensolve import smallest_k_dense
from rectmorley.element import (build_reference_element, reference_dof_points,
                                reference_dof_scale)
from rectmorley.functions import sine_eigenvalue, unit_box_eigenfunction
from rectmorley.mesh import build_mesh
from rectmorley.operators import canonical_interpolate
from rectmorley.polynomial import Polynomial, tabulate
from rectmorley.quadrature import tensor_rule


# ---------------------------------------------------------------------------
# DOF maps
# ---------------------------------------------------------------------------

def test_free_dof_counts_2d():
    mesh = build_mesh(2, 4)
    nv = mesh.num_vertices
    clamped = build_dof_map(mesh, BC_CLAMPED)
    assert (clamped.entity_dof[:nv] >= 0).sum() == 9
    assert (clamped.entity_dof[nv:] >= 0).sum() == 24
    assert clamped.num_free == 33
    ss = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    assert (ss.entity_dof[:nv] >= 0).sum() == 9
    assert (ss.entity_dof[nv:] >= 0).sum() == 40
    assert ss.num_free == 49
    assert free_dof_count(mesh, BC_CLAMPED) == 33
    assert free_dof_count(mesh, BC_SIMPLY_SUPPORTED) == 49


def test_free_dof_counts_3d():
    mesh = build_mesh(3, 2)
    clamped = build_dof_map(mesh, BC_CLAMPED)
    assert clamped.num_free == 1 + 12
    ss = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    assert ss.num_free == 1 + 36


@pytest.mark.parametrize("dim,n", [(2, 1), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_cell_connectivity_matches_entity_incidence(dim, n, bc, entity_ids):
    mesh = build_mesh(dim, n)
    dofmap = build_dof_map(mesh, bc)
    sides = reference_dof_points(dim)[2 ** dim:].sum(axis=1)
    ids = entity_ids(mesh)
    for e in range(mesh.num_elements):
        facets = ids.facets_of(e)
        expected_dofs = dofmap.entity_dof[ids.vertices_of(e) + [fid for fid, _ in facets]]
        assert np.array_equal(dofmap.cell_dofs[e], expected_dofs)
        # Every element's facet slots lie on the reference element's sides.
        assert np.array_equal(sides, [side for _, side in facets])


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_free_dofs_are_numbered_in_id_order(dim, n, bc):
    dofmap = build_dof_map(build_mesh(dim, n), bc)
    numbers = dofmap.entity_dof
    assert np.array_equal(numbers[numbers >= 0], np.arange(dofmap.num_free))


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 4)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_nested_dissection_numbers_the_mid_plane_last(dim, n, bc, entity_ids):
    mesh = build_mesh(dim, n)
    natural = build_dof_map(mesh, bc)
    dofmap = nested_dissection(natural)
    numbers = dofmap.entity_dof
    free = numbers >= 0
    # The same map, renumbered: the same free entities, each number once.
    assert (dofmap.mesh, dofmap.bc) == (mesh, bc)
    assert np.array_equal(free, natural.entity_dof >= 0)
    assert np.array_equal(np.sort(numbers[free]), np.arange(dofmap.num_free))
    assert np.array_equal(dofmap.cell_dofs, numbers[mesh.cell_entities])
    # The box is a cube, so the first split is the mid-plane x_0 = 1/2: its
    # vertices and the facets normal to axis 0 on it, numbered last; the
    # side x_0 < 1/2 comes before the side x_0 > 1/2.
    x0 = entity_ids(mesh).coordinates()[free, 0]
    numbers = numbers[free]
    on_plane = numbers[x0 == n]
    assert np.array_equal(np.sort(on_plane),
                          np.arange(dofmap.num_free - len(on_plane), dofmap.num_free))
    assert numbers[x0 < n].max() < numbers[x0 > n].min()


def test_only_the_factored_pencils_are_bisected(monkeypatch, capsys):
    calls = []

    def counted(dofmap):
        calls.append(dofmap.num_free)
        return nested_dissection(dofmap)

    monkeypatch.setattr(assembly, "nested_dissection", counted)
    # Simply supported and clamped solves on the auto route (split, one
    # block, 2D and 3D), which take their pairs from the symbol, a field
    # rung and the identity suite build no factor.
    for dim, n in ((2, 64), (2, 15), (3, 8)):
        assert cli.solve_problem(dim, n, BC_SIMPLY_SUPPORTED).converged
    for dim, n in ((2, 64), (2, 15), (3, 8), (3, 9)):
        assert cli.solve_problem(dim, n, BC_CLAMPED).converged
    mesh = build_mesh(2, 64)
    sine = unit_box_eigenfunction((1, 1))
    field = interpolate_global(sine, mesh, build_dof_map(mesh, BC_SIMPLY_SUPPORTED)).field
    broken_error_norms(sine, field, mesh, build_reference_element(2))
    assert cli.main(["verify", "identity37"]) == 0
    capsys.readouterr()
    assert calls == []
    # A clamped solve on the dense route renumbers its one shared map,
    # split or not.
    for dim, n in ((3, 6), (3, 5), (2, 8)):
        assert cli.solve_problem(dim, n, BC_CLAMPED, solver="dense").converged
        assert len(calls) == 1
        calls.clear()


def test_shared_facet_signs_are_opposite():
    mesh = build_mesh(2, 2)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    # Local facet slots start after the four vertex slots; slot 5 is the
    # axis-0 plus facet and slot 4 the minus facet.
    right_of_0 = dofmap.cell_dofs[0, 5]
    left_of_1 = dofmap.cell_dofs[1, 4]
    assert right_of_0 == left_of_1
    # The one DOF points along +x_0 in both; the outward normal derivatives,
    # side times it, have opposite signs.
    assert reference_dof_points(2)[5, 0] == 1
    assert reference_dof_points(2)[4, 0] == -1


def test_bad_bc_rejected():
    mesh = build_mesh(2, 2)
    with pytest.raises(ValueError):
        build_dof_map(mesh, "periodic")
    for faces in ([BC_CLAMPED] * 3, [BC_CLAMPED] * 3 + ["periodic"]):
        with pytest.raises(ValueError, match="faces"):
            build_dof_map(mesh, BC_CLAMPED, faces)
    # A restriction may constrain more than the numbering, never less.
    with pytest.raises(ValueError, match="constrains"):
        restricted_dofs(build_dof_map(mesh, BC_CLAMPED), [BC_SIMPLY_SUPPORTED] * 4)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_mid_plane_conditions_constrain_their_face(dim, bc, entity_ids):
    # The half box [0, 1/2]^dim with 4 cells per axis: its upper faces are
    # mirror planes (multi-index 4), its lower faces keep bc.
    n = 4
    mesh = build_mesh(dim, n, domain=((0.0,) * dim, (0.5,) * dim))
    ids = entity_ids(mesh)
    for parity in itertools.product((PARITY_EVEN, PARITY_ODD), repeat=dim):
        faces = [face for p in parity for face in (bc, p)]
        dofmap = build_dof_map(mesh, bc, faces)
        assert dofmap.num_free == free_dof_count(mesh, bc, faces)
        for multi, v in ids.vertex.items():
            # Odd parity fixes the vertices of its plane; both bcs the outer ones.
            fixed = 0 in multi or any(m == n and p == PARITY_ODD
                                      for m, p in zip(multi, parity))
            assert (dofmap.entity_dof[v] < 0) == fixed
        for (axis, multi), f in ids.facet.items():
            # Even parity fixes the facets in its plane; clamping the outer ones.
            fixed = ((multi[axis] == 0 and bc == BC_CLAMPED)
                     or (multi[axis] == n and parity[axis] == PARITY_EVEN))
            assert (dofmap.entity_dof[f] < 0) == fixed


# ---------------------------------------------------------------------------
# element matrices
# ---------------------------------------------------------------------------

def test_reference_stiffness_annihilates_affine_functions(ref2, ref3):
    for element in (ref2, ref3):
        khat, _ = reference_matrices(element)
        affine = Polynomial.constant(element.dim, 0.7)
        for a in range(element.dim):
            affine = affine + (a + 1.0) * Polynomial.variable(element.dim, a)
        coeffs = canonical_interpolate(element, affine).coefficients
        assert np.max(np.abs(khat @ coeffs)) < 1e-12


def test_constant_mass_integrates_cell_volume(ref2, ref3):
    for element, h in ((ref2, 0.125), (ref3, 0.25)):
        _, me = element_matrices(element, h)
        ones = np.zeros(element.ndof)
        ones[~element.facet_dof_mask] = 1.0
        assert ones @ me @ ones == pytest.approx(
            (2.0 * h) ** element.dim, rel=1e-12
        )


def test_element_matrices_obey_scaling_law(ref2, ref3):
    for element in (ref2, ref3):
        dim = element.dim
        k1, m1 = element_matrices(element, 1.0)
        h = 0.35
        kh, mh = element_matrices(element, h)
        d = reference_dof_scale(element, h)  # (1, ..., h, ...)
        sandwich = d[:, None] * d[None, :]
        assert np.allclose(kh, h ** (dim - 4) * sandwich * k1, rtol=1e-12)
        assert np.allclose(mh, h ** dim * sandwich * m1, rtol=1e-12)


def test_element_stiffness_matches_quadrature(ref2):
    # Independent route: tabulate second derivatives of the physical basis and
    # integrate the full Hessian contraction with Gauss quadrature.
    h = 0.25
    ke, me = element_matrices(ref2, h)
    rule = tensor_rule(2, 5)
    scale = reference_dof_scale(ref2, h)
    alphas = [(2, 0), (1, 1), (1, 1), (0, 2)]
    tables = [table.T / h ** 2 for table in
              np.moveaxis(tabulate(2, ref2.coeffs, alphas, rule.points), -1, 0)]
    vals = tabulate(2, ref2.coeffs, [(0, 0)], rule.points)[..., 0].T
    ke_quad = np.zeros((8, 8))
    me_quad = np.zeros((8, 8))
    for table in tables:
        ke_quad += np.einsum("qi,qj,q->ij", table, table, rule.weights)
    me_quad = np.einsum("qi,qj,q->ij", vals, vals, rule.weights)
    jac = h ** 2  # dx = h^dim dxi
    ke_quad = jac * scale[:, None] * ke_quad * scale[None, :]
    me_quad = jac * scale[:, None] * me_quad * scale[None, :]
    assert np.allclose(ke, ke_quad, atol=1e-10)
    assert np.allclose(me, me_quad, atol=1e-12)


# ---------------------------------------------------------------------------
# global assembly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_assembled_matrices_are_spd(bc, ref2):
    mesh = build_mesh(2, 3)
    dofmap = build_dof_map(mesh, bc)
    a_mat, m_mat = assemble(mesh, dofmap, ref2)
    assert a_mat.shape == (dofmap.num_free, dofmap.num_free)
    cholesky(a_mat.toarray())
    cholesky(m_mat.toarray())


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 3)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_assembled_matrices_are_exactly_symmetric_without_stored_zeros(dim, n, bc,
                                                                       ref2, ref3):
    mesh = build_mesh(dim, n)
    dofmap = build_dof_map(mesh, bc)
    for mat in assemble(mesh, dofmap, ref2 if dim == 2 else ref3):
        assert mat.format == "csr" and mat.has_canonical_format
        assert (mat != mat.T).nnz == 0
        assert np.all(mat.data != 0.0)


@pytest.mark.parametrize("dim,n", [(2, 5), (3, 3)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_cell_diagonal_is_the_assembled_diagonal(dim, n, bc, ref2, ref3):
    mesh = build_mesh(dim, n)
    dofmap = build_dof_map(mesh, bc)
    element = ref2 if dim == 2 else ref3
    for mat, local in zip(assemble(mesh, dofmap, element),
                          element_matrices(element, mesh.half_width)):
        diagonal = assembly.cell_diagonal(dofmap, local)
        np.testing.assert_allclose(diagonal, mat.diagonal(), rtol=1e-14, atol=0)


def test_assembly_matches_manual_gather_on_single_cell(ref2):
    # One cell, simply supported: only the four facet DOFs stay free, so the
    # global matrices are submatrices of the element ones.
    mesh = build_mesh(2, 1)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    assert dofmap.num_free == 4
    a_mat, m_mat = assemble(mesh, dofmap, ref2)
    ke, me = element_matrices(ref2, mesh.half_width)
    assert np.allclose(a_mat.toarray(), ke[4:, 4:], atol=1e-12)
    assert np.allclose(m_mat.toarray(), me[4:, 4:], atol=1e-12)


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_assembly_is_the_unsigned_scatter_add_of_element_matrices(dim, n, bc, ref2, ref3):
    # Reference and global DOFs share their direction, so each cell adds its
    # element matrices at its cell_dofs as they stand, cell by cell.
    element = ref2 if dim == 2 else ref3
    mesh = build_mesh(dim, n)
    dofmap = build_dof_map(mesh, bc)
    for mat, local in zip(assemble(mesh, dofmap, element),
                          element_matrices(element, mesh.half_width)):
        expected = np.zeros((dofmap.num_free, dofmap.num_free))
        for dofs in dofmap.cell_dofs:
            free = dofs >= 0
            expected[np.ix_(dofs[free], dofs[free])] += local[np.ix_(free, free)]
        assert np.array_equal(mat.toarray(), expected)


def test_rayleigh_quotient_of_solved_pair_reproduces_eigenvalue(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    a_mat, m_mat = assemble(mesh, dofmap, ref2)
    result = smallest_k_dense(a_mat, m_mat, 3)
    w, vecs = result.eigenvalues, result.eigenvectors
    for k in range(3):
        c = vecs[:, k]
        num = c @ (a_mat @ c)
        den = c @ (m_mat @ c)
        assert num / den == pytest.approx(w[k], rel=1e-12)


# ---------------------------------------------------------------------------
# fields and global interpolation
# ---------------------------------------------------------------------------

def test_field_rejects_wrong_length():
    mesh = build_mesh(2, 2)
    dofmap = build_dof_map(mesh, BC_CLAMPED)
    with pytest.raises(ValueError):
        FemField(dofmap, np.zeros(dofmap.num_free + 1))


def test_local_coefficients_carry_h_and_no_sign():
    mesh = build_mesh(2, 2)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    from rectmorley.element import build_reference_element

    element = build_reference_element(2)
    shared = dofmap.cell_dofs[0, 5]  # facet between elements 0 and 1
    coeffs = np.zeros(dofmap.num_free)
    coeffs[shared] = 1.0
    field = FemField(dofmap, coeffs)
    local = field.local_reference_coefficients(element)
    h = mesh.half_width
    assert local[0, 5] == pytest.approx(h)
    assert local[1, 4] == pytest.approx(h)


def test_interpolated_quadratic_is_recovered_pointwise(ref2, entity_ids):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    poly = Polynomial(2, {(2, 0): 1.0, (1, 1): 0.5, (0, 1): -1.0, (0, 0): 0.3})
    interp = interpolate_global(poly, mesh, dofmap)
    # Element (1, 1) touches only free entities, so the field restricted to it
    # is the exact local interpolant ... and quadratics interpolate exactly.
    e = 1 + 1 * 4
    pts = np.array([[0.3, -0.8], [0.0, 0.0], [-0.6, 0.9]])
    h = mesh.half_width
    phys = entity_ids(mesh).center(e) + h * pts
    local = interp.field.local_reference_coefficients(ref2)[e]
    got = local @ tabulate(2, ref2.coeffs, [(0, 0)], pts)[..., 0]
    assert got == pytest.approx(poly(phys), abs=1e-12)
    grad0 = local @ tabulate(2, ref2.coeffs, [(1, 0)], pts)[..., 0] / h
    assert grad0 == pytest.approx(poly.diff(0)(phys), abs=1e-11)


def cubic_with_boundary_values(dim):
    # Nonzero values and normal derivatives on the boundary, so constrained
    # DOFs carry data under both boundary conditions.
    return Polynomial(dim, {
        (3,) + (0,) * (dim - 1): 1.0,
        (1, 1) + (0,) * (dim - 2): 0.5,
        (0, 2) + (0,) * (dim - 2): -1.0,
        (0,) * dim: 0.25,
    })


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_interpolate_global_matches_entity_definitions(dim, n, bc, entity_ids):
    mesh = build_mesh(dim, n)
    ids = entity_ids(mesh)
    dofmap = build_dof_map(mesh, bc)
    f = cubic_with_boundary_values(dim)
    interp = interpolate_global(f, mesh, dofmap)
    base = tensor_rule(dim - 1, 8)
    h = mesh.half_width
    constrained = []
    for multi, vid in ids.vertex.items():
        val = float(f(ids.point(multi)))
        gid = dofmap.entity_dof[vid]
        if gid >= 0:
            assert interp.field.coeffs[gid] == pytest.approx(val, rel=1e-12, abs=1e-14)
        else:
            constrained.append(abs(val))
    for (axis, multi), fid in ids.facet.items():
        center = ids.facet_midpoint(axis, multi)
        phys = np.repeat(center[None, :], base.num_points, axis=0)
        phys[:, [a for a in range(dim) if a != axis]] += h * base.points
        val = f.diff(axis)(phys) @ base.weights / 2.0 ** (dim - 1)
        gid = dofmap.entity_dof[fid]
        if gid >= 0:
            assert interp.field.coeffs[gid] == pytest.approx(val, rel=1e-12, abs=1e-14)
        else:
            constrained.append(abs(val))
    assert interp.max_constrained_residual == pytest.approx(max(constrained), rel=1e-12)


def test_constrained_residual_flags_incompatible_boundary_data():
    mesh = build_mesh(2, 4)
    sine = unit_box_eigenfunction((1, 1))
    ss = interpolate_global(sine, mesh, build_dof_map(mesh, BC_SIMPLY_SUPPORTED))
    assert ss.max_constrained_residual < 1e-12
    clamped = interpolate_global(sine, mesh, build_dof_map(mesh, BC_CLAMPED))
    # The normal derivative of the sine mode does not vanish on the boundary.
    assert clamped.max_constrained_residual > 1.0


def test_clamped_compatible_bubble_function_is_admissible():
    mesh = build_mesh(2, 4)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    bubble = (x * (1.0 - x) * y * (1.0 - y)) ** 2
    interp = interpolate_global(bubble, mesh, build_dof_map(mesh, BC_CLAMPED))
    assert interp.max_constrained_residual < 1e-13


# ---------------------------------------------------------------------------
# broken inner products and norms
# ---------------------------------------------------------------------------

def test_energy_inner_field_field_is_rayleigh_numerator(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    a_mat, m_mat = assemble(mesh, dofmap, ref2)
    result = smallest_k_dense(a_mat, m_mat, 1)
    w, vecs = result.eigenvalues, result.eigenvectors
    field = FemField(dofmap, vecs[:, 0])
    energy = broken_energy_inner(field, field, mesh, ref2)
    assert energy == pytest.approx(float(vecs[:, 0] @ (a_mat @ vecs[:, 0])), rel=1e-12)
    assert energy == pytest.approx(w[0], rel=1e-10)  # vectors are mass-normalized


def test_energy_inner_analytic_analytic_matches_eigenvalue(ref2):
    mesh = build_mesh(2, 4)
    sine = unit_box_eigenfunction((1, 1))
    a_uu = broken_energy_inner(sine, sine, mesh, ref2)
    assert a_uu == pytest.approx(sine_eigenvalue((1, 1)), rel=1e-8)
    assert l2_norm_analytic(sine, mesh) == pytest.approx(1.0, rel=1e-10)


def test_energy_inner_mixed_path_is_symmetric_and_consistent(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    sine = unit_box_eigenfunction((1, 1))
    field = interpolate_global(sine, mesh, dofmap).field
    mixed = broken_energy_inner(sine, field, mesh, ref2)
    swapped = broken_energy_inner(field, sine, mesh, ref2)
    assert mixed == pytest.approx(swapped, rel=1e-12)
    a_uu = broken_energy_inner(sine, sine, mesh, ref2)
    a_ff = broken_energy_inner(field, field, mesh, ref2)
    assert mixed ** 2 <= a_uu * a_ff * (1.0 + 1e-10)
    assert abs(mixed - a_uu) / a_uu < 0.1


def test_broken_error_norms_match_local_probe_route(ref2):
    # For the sine mode under simply supported conditions every constrained
    # vertex value vanishes, so the global field coincides with cellwise
    # interpolation and the two error pipelines must agree.
    from rectmorley.operators import interpolation_convergence_probe

    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    sine = unit_box_eigenfunction((1, 1))
    field = interpolate_global(sine, mesh, dofmap).field
    norms = broken_error_norms(sine, field, mesh, ref2)
    probe = interpolation_convergence_probe(sine, 2, (4,))
    for l in (0, 1, 2):
        assert norms[l] == pytest.approx(probe.errors[l][0], rel=1e-12)


def cellwise_integral(ids, element, order, pointwise, u, v, quad_order=8):
    """Per-cell loop from the definition on the mesh of the oracle ids: sum over
    cells and over every ordered axis tuple of length `order` of the quadrature
    of pointwise(d u, d v)."""
    mesh = ids.mesh
    rule = tensor_rule(mesh.dim, quad_order)
    h = mesh.half_width
    total = 0.0
    for e in range(mesh.num_elements):
        phys = ids.center(e) + h * rule.points
        for axes in itertools.product(range(mesh.dim), repeat=order):
            alpha = [0] * mesh.dim
            for a in axes:
                alpha[a] += 1
            samples = []
            for w in (u, v):
                if isinstance(w, FemField):
                    local = w.local_reference_coefficients(element)[e]
                    samples.append(local @ tabulate(mesh.dim, element.coeffs, [alpha],
                                                    rule.points)[..., 0] / h ** order)
                else:
                    samples.append(w.derivatives([alpha], phys)[:, 0])
            total += pointwise(*samples) @ rule.weights * h ** mesh.dim
    return total


@pytest.mark.parametrize("dim,n", [(2, 3), (3, 2)])
def test_broken_quadrature_matches_cellwise_definition(dim, n, ref2, ref3, entity_ids):
    element = ref2 if dim == 2 else ref3
    mesh = build_mesh(dim, n)
    ids = entity_ids(mesh)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    sine = unit_box_eigenfunction((1,) * dim)
    cubic = cubic_with_boundary_values(dim)
    field = FemField(dofmap, np.random.default_rng(5).standard_normal(dofmap.num_free))

    def squared_error(a, b):
        return (a - b) ** 2

    norms = broken_error_norms(sine, field, mesh, element)
    for l in (0, 1, 2):
        expected = math.sqrt(cellwise_integral(ids, element, l, squared_error, sine, field))
        assert norms[l] == pytest.approx(expected, rel=1e-12)
    assert l2_norm_analytic(sine, mesh) == pytest.approx(
        math.sqrt(cellwise_integral(ids, element, 0, np.multiply, sine, sine)), rel=1e-12)
    assert broken_energy_inner(sine, field, mesh, element) == pytest.approx(
        cellwise_integral(ids, element, 2, np.multiply, sine, field), rel=1e-12)
    assert broken_energy_inner(sine, cubic, mesh, element) == pytest.approx(
        cellwise_integral(ids, element, 2, np.multiply, sine, cubic), rel=1e-12)


def test_interpolant_rayleigh_bounds_smallest_eigenvalue(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    a_mat, m_mat = assemble(mesh, dofmap, ref2)
    w = smallest_k_dense(a_mat, m_mat, 1).eigenvalues
    field = interpolate_global(unit_box_eigenfunction((1, 1)), mesh, dofmap).field
    num = field.coeffs @ (a_mat @ field.coeffs)
    den = field.coeffs @ (m_mat @ field.coeffs)
    assert num / den >= w[0] * (1.0 - 1e-12)


# ---------------------------------------------------------------------------
# eigenvalue error identity
# ---------------------------------------------------------------------------

def solve_first_pair(mesh, dofmap, element):
    a_mat, m_mat = assemble(mesh, dofmap, element)
    result = smallest_k_dense(a_mat, m_mat, 1)
    return a_mat, m_mat, result.eigenvalues[0], FemField(dofmap, result.eigenvectors[:, 0])


def test_identity_residual_is_solver_precision(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    a_mat, m_mat, lam_h, u_h = solve_first_pair(mesh, dofmap, ref2)
    lam = sine_eigenvalue((1, 1))
    terms = eigen_error_identity_terms(
        lam, unit_box_eigenfunction((1, 1)), lam_h, u_h, mesh, dofmap, ref2,
        A=a_mat, M=m_mat,
    )
    assert terms.lam_gap == pytest.approx(lam - lam_h)
    assert abs(terms.residual) < 1e-8
    # The value itself is positive here: the discrete eigenvalue sits below.
    assert terms.lam_gap > 0


def test_identity_is_invariant_under_eigenvector_sign(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_SIMPLY_SUPPORTED)
    a_mat, m_mat, lam_h, u_h = solve_first_pair(mesh, dofmap, ref2)
    lam = sine_eigenvalue((1, 1))
    flipped = FemField(dofmap, -u_h.coeffs)
    for candidate in (u_h, flipped):
        terms = eigen_error_identity_terms(
            lam, unit_box_eigenfunction((1, 1)), lam_h, candidate, mesh,
            dofmap, ref2, A=a_mat, M=m_mat,
        )
        assert abs(terms.residual) < 1e-8


def test_identity_rejects_inadmissible_input(ref2):
    mesh = build_mesh(2, 4)
    dofmap = build_dof_map(mesh, BC_CLAMPED)
    a_mat, m_mat, lam_h, u_h = solve_first_pair(mesh, dofmap, ref2)
    with pytest.raises(ValueError, match="not admissible"):
        eigen_error_identity_terms(
            sine_eigenvalue((1, 1)), unit_box_eigenfunction((1, 1)), lam_h,
            u_h, mesh, dofmap, ref2, A=a_mat, M=m_mat,
        )


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 4)])
def test_error_norms_of_all_orders_equal_one_integral_per_order(dim, n, ref2, ref3):
    # broken_error_norms evaluates the analytic input once per block for all
    # orders; the norms are bit for bit those of one broken_integrals call per
    # order.
    element = ref2 if dim == 2 else ref3
    mesh = build_mesh(dim, n)
    sine = unit_box_eigenfunction((1,) * dim)
    field = interpolate_global(sine, mesh, build_dof_map(mesh, BC_SIMPLY_SUPPORTED)).field
    coeffs = field.local_reference_coefficients(element)

    def squared_error(exact, discrete):
        return (exact - discrete) ** 2

    norms = broken_error_norms(sine, field, mesh, element)
    assert norms == {l: math.sqrt(broken_integrals(mesh, element, (l,), squared_error,
                                                   sine, coeffs)[l]) for l in (0, 1, 2)}
    assert broken_error_norms(sine, field, mesh, element, orders=(2, 0)) == {
        2: norms[2], 0: norms[0]}

    class Counted:
        calls = 0
        dim = sine.dim

        def derivatives(self, alphas, x, offsets=None):
            Counted.calls += 1
            return sine.derivatives(alphas, x, offsets)

    assert broken_error_norms(Counted(), field, mesh, element) == norms
    points = mesh.num_elements * tensor_rule(dim, QUAD_ORDER).num_points
    assert Counted.calls == math.ceil(points / BLOCK_POINTS)  # one call per block


# broken_error_norms of the all-ones sine eigenfunction against its
# interpolant on the simply supported DOF map, stored from the kernel that
# took sin and cos at every quadrature point (no angle addition).
FIELD_RUNG_NORMS = {
    (2, 16): {0: 0.0003308233389236933, 1: 0.022070821085625004, 2: 1.5799971689980365},
    (3, 4): {0: 0.04685093283826737, 1: 0.7054985987627705, 2: 11.733810101767915},
}


@pytest.mark.parametrize("dim,n", sorted(FIELD_RUNG_NORMS))
def test_field_rung_norms_are_pinned(dim, n, ref2, ref3):
    mesh = build_mesh(dim, n)
    sine = unit_box_eigenfunction((1,) * dim)
    field = interpolate_global(sine, mesh, build_dof_map(mesh, BC_SIMPLY_SUPPORTED)).field
    norms = broken_error_norms(sine, field, mesh, ref2 if dim == 2 else ref3)
    assert norms == pytest.approx(FIELD_RUNG_NORMS[dim, n], rel=1e-12, abs=0)
