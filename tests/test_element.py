import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley.element import (SHAPE_DEGREE, build_reference_element, dof_matrix,
                                reference_corners, reference_dof_points,
                                reference_dof_scale)
from rectmorley.polynomial import Polynomial, tabulate
from rectmorley.quadrature import facet_rule


def dofs_of(f):
    """Every reference DOF of the polynomial f, in DOF order."""
    return dof_matrix(f.dim, f.bound) @ f.coeffs


def facet_dof(dim, axis, side):
    return 2 ** dim + 2 * axis + (side > 0)


def basis(element):
    return [Polynomial.from_coefficients(element.dim, row) for row in element.coeffs]


@pytest.mark.parametrize("dim,ndof", [(2, 8), (3, 14)])
def test_dof_counts(dim, ndof, ref2, ref3):
    element = ref2 if dim == 2 else ref3
    assert element.ndof == ndof == dof_matrix(dim, SHAPE_DEGREE).shape[0]
    assert element.facet_dof_mask.sum() == 2 * dim
    assert np.array_equal(np.flatnonzero(element.facet_dof_mask), np.arange(2 ** dim, ndof))
    # Axis 0 toggles fastest through the corners.
    corners = reference_corners(dim)
    assert np.array_equal(corners, [c[::-1] for c in itertools.product((-1, 1), repeat=dim)])
    # The kinds by index: corner values first (1 on the constant, the corner
    # coordinate on xi_a), then facet mean derivatives along +axis (0 on the
    # constant, 1 on the facet's own coordinate, 0 on the others).
    assert dofs_of(Polynomial.constant(dim, 1.0)) == pytest.approx(
        [1.0] * 2 ** dim + [0.0] * 2 * dim, abs=1e-15)
    for a in range(dim):
        values = dofs_of(Polynomial.variable(dim, a))
        assert values[: 2 ** dim] == pytest.approx(corners[:, a], abs=1e-15)
        expected = np.zeros(2 * dim)
        for side in (-1, 1):
            expected[facet_dof(dim, a, side) - 2 ** dim] = 1.0
        assert values[2 ** dim:] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_reference_dof_points_follow_the_dof_matrix_rows(dim):
    # On xi_a a corner's value is coordinate a of its point, and a facet's
    # mean derivative along +axis is 1 on its own axis, where its point is
    # side, and 0 on the others.  The constant is 1 at corners, 0 on facets.
    points = reference_dof_points(dim)
    assert points.shape == (dof_matrix(dim, SHAPE_DEGREE).shape[0], dim)
    assert np.array_equal(points[: 2 ** dim], reference_corners(dim))
    for a in range(dim):
        values = dofs_of(Polynomial.variable(dim, a))
        assert np.array_equal(values[: 2 ** dim], points[: 2 ** dim, a])
        assert np.array_equal(values[2 ** dim:], np.abs(points[2 ** dim:, a]))
    assert np.array_equal(dofs_of(Polynomial.constant(dim, 1.0)),
                          np.all(points != 0, axis=1))


def test_nodal_delta_property(ref2, ref3):
    for element in (ref2, ref3):
        table = np.array([dofs_of(phi) for phi in basis(element)]).T
        assert np.max(np.abs(table - np.eye(element.ndof))) < 1e-12


def test_vandermonde_is_well_conditioned(ref2, ref3):
    assert ref2.cond < 100.0
    assert ref3.cond < 100.0


def test_vertex_functionals_evaluate_at_corners(ref2):
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = x * y ** 2
    corners = reference_corners(2)
    values = dofs_of(f)
    for i in range(4):
        expected = corners[i, 0] * corners[i, 1] ** 2
        assert values[i] == pytest.approx(expected, abs=1e-14)


def test_facet_functionals_average_the_normal_derivative(ref2):
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    f = x * y ** 2
    # d f / d xi_0 = xi_1^2, so its mean over either vertical edge is 1/3:
    # both sides differentiate along +xi_0, whichever way the edge faces.
    values = dofs_of(f)
    assert values[facet_dof(2, 0, 1)] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert values[facet_dof(2, 0, -1)] == pytest.approx(1.0 / 3.0, abs=1e-14)
    # d f / d xi_1 = 2 xi_0 xi_1 has zero mean along the horizontal edges.
    assert values[facet_dof(2, 1, 1)] == pytest.approx(0.0, abs=1e-14)
    assert values[facet_dof(2, 1, -1)] == pytest.approx(0.0, abs=1e-14)


def test_facet_functional_matches_quadrature(ref3):
    x0 = Polynomial.variable(3, 0)
    x1 = Polynomial.variable(3, 1)
    x2 = Polynomial.variable(3, 2)
    f = x0 ** 3 * x1 + x2 ** 2
    values = dofs_of(f)
    for axis in range(3):
        for side in (-1, 1):
            rule = facet_rule(3, axis, side, 4)
            df = f.diff(axis)
            quad_mean = float(df(rule.points) @ rule.weights) / rule.weights.sum()
            assert values[facet_dof(3, axis, side)] == pytest.approx(quad_mean, abs=1e-13)


def test_shape_space_contains_expected_monomials(ref2, ref3):
    assert len(ref2.monomials) == 8
    assert (3, 0) in ref2.monomials and (0, 3) in ref2.monomials
    assert (2, 1) not in ref2.monomials
    assert len(ref3.monomials) == 14
    assert (1, 1, 1) in ref3.monomials
    assert (2, 1, 0) not in ref3.monomials


def test_pure_second_derivative_is_affine_in_its_own_axis(ref2, ref3):
    # d^2 v / d xi_a^2 only sees the xi_a^2 and xi_a^3 monomials, so it cannot
    # vary along any other axis.
    rng = np.random.default_rng(7)
    for element in (ref2, ref3):
        dim = element.dim
        for a in range(dim):
            alpha = tuple(2 if b == a else 0 for b in range(dim))
            base = rng.uniform(-1.0, 1.0, size=dim)
            moved = base.copy()
            other = (a + 1) % dim
            moved[other] = rng.uniform(-1.0, 1.0)
            assert tabulate(dim, element.coeffs, [alpha], base) == pytest.approx(
                tabulate(dim, element.coeffs, [alpha], moved), abs=1e-12
            )


def test_third_derivatives_are_constant(ref2):
    alpha = (3, 0)
    pts = np.array([[0.1, -0.4], [-0.9, 0.8], [0.5, 0.5]])
    table = tabulate(2, ref2.coeffs, [alpha], pts)[..., 0]
    assert np.max(np.abs(table - table[:, :1])) < 1e-12


def test_basis_derivatives_reject_malformed_multi_indices(ref2):
    # Orders past the cubic shape space are zero, not errors.
    assert not tabulate(2, ref2.coeffs, [(4, 0), (2, 2)], np.zeros(2)).any()
    with pytest.raises(ValueError):
        tabulate(2, ref2.coeffs, [(1,)], np.zeros(2))
    with pytest.raises(ValueError):
        tabulate(2, ref2.coeffs, [(-1, 0)], np.zeros(2))
    with pytest.raises(ValueError):
        tabulate(2, ref2.coeffs, [(1, 0)], np.zeros(3))


def test_basis_derivative_shapes(ref2):
    single = tabulate(2, ref2.coeffs, [(0, 0)], np.array([0.5, -0.5]))
    assert single.shape == (8, 1)
    batch = tabulate(2, ref2.coeffs, [(1, 0), (0, 1), (1, 1)], np.zeros((5, 2)))
    assert batch.shape == (8, 5, 3)


def test_basis_derivatives_match_each_basis_polynomial(ref2, ref3):
    rng = np.random.default_rng(3)
    for element in (ref2, ref3):
        dim = element.dim
        alphas = [alpha for alpha in itertools.product(range(3), repeat=dim)
                  if sum(alpha) <= 3]
        pts = rng.uniform(-1.0, 1.0, size=(4, dim))
        table = tabulate(dim, element.coeffs, alphas, pts)
        for phi, rows in zip(basis(element), table):
            for j, alpha in enumerate(alphas):
                assert rows[:, j] == pytest.approx(phi.diff_multi(alpha)(pts), abs=1e-13)


def test_reference_dof_scale(ref2, ref3):
    # Vertex values keep their scale; a facet DOF of a cell of half-width h
    # is 1/h times the reference one.
    assert np.array_equal(reference_dof_scale(ref2, 0.25), [1.0] * 4 + [0.25] * 4)
    assert np.array_equal(reference_dof_scale(ref3, 0.5), [1.0] * 8 + [0.5] * 6)
    for h in (0.0, -0.5):
        with pytest.raises(ValueError, match="half-width"):
            reference_dof_scale(ref2, h)


@pytest.mark.parametrize("dim", [2, 3])
def test_both_facet_rows_of_an_axis_read_one_on_its_coordinate(dim):
    # The outward normals of the facets xi_a = -1 and xi_a = +1 are opposite,
    # but both DOFs differentiate along +xi_a, as the global facet DOFs do.
    for a in range(dim):
        values = dofs_of(Polynomial.variable(dim, a))
        assert values[facet_dof(dim, a, -1)] == values[facet_dof(dim, a, 1)] == 1.0


def test_build_rejects_unsupported_dim():
    with pytest.raises(ValueError):
        build_reference_element(1)
    with pytest.raises(ValueError):
        build_reference_element(4)


def test_reference_element_is_cached():
    assert build_reference_element(2) is build_reference_element(2)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        min_size=8,
        max_size=8,
    )
)
def test_interpolation_reproduces_shape_functions(coeffs, ref2):
    # Any combination of nodal basis functions must come back from its own DOFs.
    v = Polynomial.zero(2)
    for c, phi in zip(coeffs, basis(ref2)):
        v = v + c * phi
    recovered = dofs_of(v)
    assert recovered == pytest.approx(np.asarray(coeffs), abs=1e-10)
