import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley import operators
from rectmorley.assembly import entity_values
from rectmorley.element import build_reference_element, dof_matrix, reference_corners
from rectmorley.functions import SineProduct, unit_box_eigenfunction
from rectmorley.mesh import build_mesh
from rectmorley.operators import (VerificationReport, build_bubbles,
                                  bubble_expansion, canonical_interpolate,
                                  commuting_discrepancy, deviation_record,
                                  equality_record,
                                  interpolation_convergence_probe, moment_matrix,
                                  moment_project,
                                  multi_indices_up_to, refined_identity_check,
                                  run_bubble_suite, run_commuting_suite,
                                  run_refined_identity_suite)
from rectmorley.polynomial import Polynomial
from rectmorley.quadrature import facet_rule, tensor_rule


def random_quartic(dim, rng):
    alphas = multi_indices_up_to(dim, 4)
    coeffs = rng.uniform(-1.0, 1.0, size=len(alphas))
    return Polynomial(dim, dict(zip(alphas, coeffs)))


# ---------------------------------------------------------------------------
# canonical interpolation
# ---------------------------------------------------------------------------

def test_interpolant_of_mixed_cubic_has_closed_form(ref2):
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    u = x * y ** 2
    result = canonical_interpolate(ref2, u)
    expected = (4.0 / 3.0) * x - (1.0 / 3.0) * x ** 3
    assert result.interpolant.almost_equal(expected, tol=1e-12)
    # The error is exactly the phi bubble with the squared axis first.
    _, phi = build_bubbles(2)["phi(1,0)"]
    assert result.error.almost_equal(phi, tol=1e-12)


def test_interpolant_of_mixed_quartic_3d(ref3):
    u = Polynomial.monomial(3, (2, 1, 1))
    result = canonical_interpolate(ref3, u)
    expected = Polynomial.monomial(3, (0, 1, 1))
    assert result.interpolant.almost_equal(expected, tol=1e-12)
    err = result.error
    lhs = Polynomial.monomial(3, (2, 1, 1)) - Polynomial.monomial(3, (0, 1, 1))
    assert err.almost_equal(lhs, tol=1e-12)


def dofs_of(f):
    """Every reference DOF of the polynomial f, in DOF order."""
    return dof_matrix(f.dim, f.bound) @ f.coeffs


def oracle_interpolate(element, f):
    """Solve the DOF matching system directly from quadrature, bypassing the
    precomputed nodal basis and dof_matrix: corner values in corner order,
    then facet mean outward normal derivatives, axis by axis, side -1 first.
    Scaling a functional does not change the interpolant, so these outward
    DOFs check dof_matrix's +axis ones as well."""
    dim = element.dim

    def facet_functional(axis, side):
        rule = facet_rule(dim, axis, side, 6)
        return lambda poly: (side * float(poly.diff(axis)(rule.points) @ rule.weights)
                             / rule.weights.sum())

    functionals = [lambda poly, pt=pt: float(poly(pt)) for pt in reference_corners(dim)]
    functionals += [facet_functional(axis, side) for axis in range(dim) for side in (-1, 1)]
    shape = [Polynomial.monomial(dim, exps) for exps in element.monomials]
    vander = np.array([[ell(p) for p in shape] for ell in functionals])
    data = np.array([ell(f) for ell in functionals])
    sol = np.linalg.solve(vander, data)
    return Polynomial(dim, dict(zip(element.monomials, sol)))


@pytest.mark.parametrize("dim", [2, 3])
def test_interpolation_matches_independent_quadrature_solve(dim):
    element = build_reference_element(dim)
    rng = np.random.default_rng(11 + dim)
    for _ in range(3):
        f = random_quartic(dim, rng)
        ours = canonical_interpolate(element, f).interpolant
        theirs = oracle_interpolate(element, f)
        assert ours.almost_equal(theirs, tol=1e-10)


def test_analytic_and_exact_paths_agree(ref2, ref3):
    # On the one-cell mesh of the reference cell (h = 1) the production path
    # for analytic input, gathered per cell, is the exact interpolation.
    for element, poly in (
        (ref2, Polynomial(2, {(0, 0): 0.5, (1, 2): 1.0, (3, 0): -2.0, (2, 2): 0.25})),
        (ref3, Polynomial(3, {(0, 0, 0): 0.5, (1, 2, 0): 1.0, (3, 0, 1): -2.0,
                              (2, 1, 1): 0.25, (0, 0, 4): 0.75})),
    ):
        dim = element.dim
        mesh = build_mesh(dim, 1, domain=((-1.0,) * dim, (1.0,) * dim))
        assert mesh.half_width == 1.0
        gathered = entity_values(poly, mesh)[mesh.cell_entities[0]]
        exact = canonical_interpolate(element, poly).coefficients
        assert gathered == pytest.approx(exact, abs=1e-12)


def test_interpolation_rejects_non_polynomial_input(ref2, ref3):
    f = SineProduct((1, 1))
    with pytest.raises(ValueError, match="interpolate_global"):
        canonical_interpolate(ref2, f)
    with pytest.raises(ValueError):
        canonical_interpolate(ref3, Polynomial.monomial(2, (2, 0)))


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
        min_size=15,
        max_size=15,
    )
)
def test_error_has_vanishing_dofs_and_projection_is_idempotent(data, ref2):
    alphas = multi_indices_up_to(2, 4)
    f = Polynomial(2, dict(zip(alphas, data)))
    result = canonical_interpolate(ref2, f)
    assert np.max(np.abs(dofs_of(result.error))) < 1e-9
    again = canonical_interpolate(ref2, result.interpolant)
    assert again.interpolant.almost_equal(result.interpolant, tol=1e-9)
    assert again.error.max_abs_coeff() < 1e-9


# ---------------------------------------------------------------------------
# moment projection
# ---------------------------------------------------------------------------

def test_multi_index_enumeration():
    quartics_2d = multi_indices_up_to(2, 4)
    assert len(quartics_2d) == 15
    assert quartics_2d[0] == (0, 0)
    assert sorted(quartics_2d) == sorted(set(quartics_2d))
    assert all(sum(a) <= 4 for a in quartics_2d)
    assert len(multi_indices_up_to(3, 4)) == 35


@pytest.mark.parametrize("dim", [2, 3])
def test_moment_projection_fixes_quartics(dim):
    rng = np.random.default_rng(5 + dim)
    f = random_quartic(dim, rng)
    assert moment_project(f).almost_equal(f, tol=1e-10)


def test_moment_projection_of_fifth_power():
    # Matching all derivative moments up to order four sends xi^5 to
    # (10/3) xi^3 - (7/3) xi.
    f = Polynomial.monomial(2, (5, 0))
    proj = moment_project(f)
    x = Polynomial.variable(2, 0)
    assert proj.almost_equal((10.0 / 3.0) * x ** 3 - (7.0 / 3.0) * x, tol=1e-10)


def test_moment_projection_matches_all_low_order_moments():
    rng = np.random.default_rng(23)
    alphas = multi_indices_up_to(2, 6)
    f = Polynomial(2, dict(zip(alphas, rng.uniform(-1, 1, size=len(alphas)))))
    proj = moment_project(f)
    assert proj.degree() <= 4
    for alpha in multi_indices_up_to(2, 4):
        gap = (proj - f).diff_multi(alpha).integrate_box()
        assert abs(gap) < 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_commuting_discrepancy_vanishes_through_degree_six(dim):
    for alpha in multi_indices_up_to(dim, 6):
        assert commuting_discrepancy(Polynomial.monomial(dim, alpha)) < 1e-12


# ---------------------------------------------------------------------------
# bubbles
# ---------------------------------------------------------------------------

def test_bubble_counts():
    assert len(build_bubbles(2)) == 7
    assert len(build_bubbles(3)) == 18
    with pytest.raises(ValueError):
        build_bubbles(4)


@pytest.mark.parametrize("dim", [2, 3])
def test_all_corrected_bubbles_annihilate_every_dof(dim):
    element = build_reference_element(dim)
    for name, (_, poly) in build_bubbles(dim).items():
        assert np.max(np.abs(dofs_of(poly))) < 1e-12, name


@pytest.mark.parametrize("dim", [2, 3])
def test_max_dof_value_does_not_depend_on_the_matrix_layout(dim, monkeypatch):
    # Each DOF is an exactly rounded sum, so a Fortran-ordered copy of the
    # DOF matrix prints the same verify report bytes.
    element = build_reference_element(dim)
    items = [poly for _, poly in build_bubbles(dim).values()]
    c_order = [operators._max_dof_value(element, poly) for poly in items]
    monkeypatch.setattr(operators, "dof_matrix",
                        lambda d, degree: np.asfortranarray(dof_matrix(d, degree)))
    assert operators.dof_matrix(dim, 4).flags.f_contiguous
    assert [operators._max_dof_value(element, poly) for poly in items] == c_order


def test_published_p_fails_at_corners():
    published = operators._published_p(2)["p-published(0,1)"]
    corner = np.array([1.0, 1.0])
    assert published(corner) == pytest.approx(1.0)
    # The corrected form does vanish there and at every other corner.
    _, corrected = build_bubbles(2)["p(0,1)"]
    for sx in (-1.0, 1.0):
        for sy in (-1.0, 1.0):
            assert corrected(np.array([sx, sy])) == pytest.approx(0.0, abs=1e-14)


def test_corrected_p_has_same_key_derivatives_as_its_role():
    # The role of p in the error expansion pins d^2/dxi_j^2 = 2 xi_i^2 - 2/3
    # and the mixed derivative 4 xi_i xi_j.
    _, p = build_bubbles(2)["p(0,1)"]
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    assert p.diff(1, 2).almost_equal(2.0 * x ** 2 - Polynomial.constant(2, 2.0 / 3.0))
    assert p.diff_multi((1, 1)).almost_equal(4.0 * x * y)


# ---------------------------------------------------------------------------
# error expansion on quartics
# ---------------------------------------------------------------------------

def test_bubble_expansion_reproduces_error_for_all_2d_quartics(ref2):
    for alpha in multi_indices_up_to(2, 4):
        f = Polynomial.monomial(2, alpha)
        exact = canonical_interpolate(ref2, f).error
        predicted = bubble_expansion(f)
        assert (exact - predicted).max_abs_coeff() < 1e-12, alpha


def test_bubble_expansion_covers_3d_except_mixed_family(ref3):
    for alpha in multi_indices_up_to(3, 4):
        f = Polynomial.monomial(3, alpha)
        exact = canonical_interpolate(ref3, f).error
        predicted = bubble_expansion(f)
        gap = (exact - predicted).max_abs_coeff()
        if sorted(alpha) == [1, 1, 2]:
            assert gap > 0.5, alpha
        else:
            assert gap < 1e-12, alpha


def test_mixed_family_error_is_the_tensor_bubble(ref3):
    f = Polynomial.monomial(3, (2, 1, 1))
    err = canonical_interpolate(ref3, f).error
    x = Polynomial.variable(3, 0)
    y = Polynomial.variable(3, 1)
    z = Polynomial.variable(3, 2)
    assert err.almost_equal((x * x - 1.0) * y * z, tol=1e-12)
    assert bubble_expansion(f).max_abs_coeff() < 1e-12


def test_expansion_rejects_high_degree():
    f = Polynomial.monomial(2, (5, 0))
    with pytest.raises(ValueError):
        bubble_expansion(f)


# ---------------------------------------------------------------------------
# refined identity
# ---------------------------------------------------------------------------

def test_refined_identity_worked_case(ref2):
    u = Polynomial.monomial(2, (1, 2))
    v = Polynomial.monomial(2, (3, 0))
    lhs, rhs = refined_identity_check(ref2, u, v, h=1.0)
    assert lhs == pytest.approx(16.0, abs=1e-12)
    assert rhs == pytest.approx(16.0, abs=1e-12)


def test_refined_identity_left_side_matches_quadrature(ref2):
    u = Polynomial.monomial(2, (1, 2))
    v = Polynomial.monomial(2, (3, 0))
    lhs, _ = refined_identity_check(ref2, u, v, h=1.0)
    err = canonical_interpolate(ref2, u).error
    rule = tensor_rule(2, 5)
    quad = 0.0
    for a in range(2):
        for b in range(2):
            vals = err.diff(a).diff(b)(rule.points) * v.diff(a).diff(b)(rule.points)
            quad += float(vals @ rule.weights)
    assert lhs == pytest.approx(quad, abs=1e-12)


def test_refined_identity_scales_like_h_to_dim_minus_four(ref2, ref3):
    rng = np.random.default_rng(9)
    for element in (ref2, ref3):
        dim = element.dim
        u = random_quartic(dim, rng)
        v = Polynomial.monomial(dim, element.monomials[-1])
        base_lhs, base_rhs = refined_identity_check(element, u, v, h=1.0)
        lhs, rhs = refined_identity_check(element, u, v, h=0.5)
        factor = 0.5 ** (dim - 4)
        assert lhs == pytest.approx(factor * base_lhs, rel=1e-12, abs=1e-12)
        assert rhs == pytest.approx(factor * base_rhs, rel=1e-12, abs=1e-12)


def test_refined_identity_trivial_for_shape_space_input(ref2):
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = Polynomial(
            2,
            dict(zip(ref2.monomials, rng.uniform(-1, 1, size=ref2.ndof))),
        )
        v = Polynomial.monomial(2, (3, 0))
        lhs, rhs = refined_identity_check(ref2, u, v, h=0.7)
        assert abs(lhs) < 1e-10
        assert abs(rhs) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    ucoeffs=st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=15,
        max_size=15,
    ),
    vindex=st.integers(min_value=0, max_value=7),
    h=st.floats(min_value=0.05, max_value=2.0),
)
def test_refined_identity_holds_for_random_2d_pairs(ucoeffs, vindex, h, ref2):
    u = Polynomial(2, dict(zip(multi_indices_up_to(2, 4), ucoeffs)))
    v = Polynomial.monomial(2, ref2.monomials[vindex])
    lhs, rhs = refined_identity_check(ref2, u, v, h=h)
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# convergence probes
# ---------------------------------------------------------------------------

def test_probe_orders_for_smooth_eigenfunction():
    probe = interpolation_convergence_probe(
        unit_box_eigenfunction((1, 1)), 2, (4, 8, 16)
    )
    assert abs(probe.orders[0] - 3.0) < 0.3
    assert abs(probe.orders[1] - 2.0) < 0.3
    assert abs(probe.orders[2] - 1.0) < 0.3
    for l in (0, 1, 2):
        assert np.all(np.diff(probe.errors[l]) < 0)


def test_probe_superconverges_on_pure_quartic():
    # x^4 has no mixed third derivatives, so the h^3 bubble terms drop out and
    # the per-cell error is exactly h^4 psi; each seminorm gains one extra
    # order over the generic bound 3 - l.
    f = Polynomial.monomial(2, (4, 0))
    probe = interpolation_convergence_probe(f, 2, (2, 4, 8))
    for l in (0, 1, 2):
        assert probe.orders[l] > 3.0 - l - 0.1  # generic bound
        assert abs(probe.orders[l] - (4.0 - l)) < 0.1  # observed gain


def test_probe_is_sharp_on_mixed_cubic():
    # x^2 y has a constant mixed third derivative, activating the h^3 term.
    f = Polynomial.monomial(2, (2, 1))
    probe = interpolation_convergence_probe(f, 2, (2, 4, 8))
    for l in (0, 1, 2):
        assert abs(probe.orders[l] - (3.0 - l)) < 0.1


def test_probe_reproduces_shape_space_functions_to_rounding():
    f = Polynomial(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 1): 2.0, (0, 0): 0.25})
    probe = interpolation_convergence_probe(f, 2, (2, 4))
    for l in (0, 1, 2):
        assert np.all(probe.errors[l] < 1e-12)


def test_probe_3d_machinery():
    f = Polynomial.monomial(3, (2, 1, 0))
    probe = interpolation_convergence_probe(f, 3, (2, 4), orders=(0, 2))
    assert abs(probe.orders[0] - 3.0) < 0.2
    assert abs(probe.orders[2] - 1.0) < 0.2


def test_probe_rejects_bad_orders():
    f = Polynomial.monomial(2, (4, 0))
    with pytest.raises(ValueError):
        interpolation_convergence_probe(f, 2, (2, 4), orders=(0, 3))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def test_bubble_suite_passes_and_serializes():
    report = run_bubble_suite()
    assert report.passed
    payload = report.to_json_dict()
    json.dumps(payload)
    assert payload["suite"] == "bubbles"
    assert payload["passed"] is True
    names = [r["name"] for r in payload["checks"]]
    assert "2d/count" in names
    deviations = [r for r in payload["checks"] if r["deviation"]]
    assert len(deviations) == 1 + 3  # one published p in 2D, three in 3D
    text = report.to_text()
    assert "PASS" in text and "FAIL" not in text.replace("result: PASS", "")


def test_commuting_suite_passes():
    report = run_commuting_suite()
    assert report.passed
    assert len(report.records) == 14


def test_identity_suite_signs_the_eigenvector_along_the_interpolant(monkeypatch):
    # The printed terms t1, t2 and t4 depend on the sign of u_h; the suite
    # fixes it so that (Pi_h u, u_h)_M > 0 on both rungs.
    from rectmorley import assembly

    original = assembly.eigen_error_identity_terms
    inner = []

    def recording(lam, u, lam_h, u_h, mesh, dofmap, element, A, M):
        p = assembly.interpolate_global(u, mesh, dofmap).field.coeffs
        inner.append(float(p @ (M @ u_h.coeffs)))
        return original(lam, u, lam_h, u_h, mesh, dofmap, element, A=A, M=M)

    monkeypatch.setattr(assembly, "eigen_error_identity_terms", recording)
    assert operators.run_eigen_identity_suite().passed
    assert len(inner) == 4  # each rung, then its sign flip
    assert inner[0] > 0 and inner[2] > 0
    assert inner[1] < 0 and inner[3] < 0


@pytest.mark.parametrize("dim", [2, 3])
def test_refined_identity_suite_passes(dim):
    report = run_refined_identity_suite(dim, n_pairs=40, seed=99)
    assert report.passed
    json.dumps(report.to_json_dict())


def test_refined_identity_suite_is_deterministic():
    a = run_refined_identity_suite(2, n_pairs=25, seed=1729)
    b = run_refined_identity_suite(2, n_pairs=25, seed=1729)
    assert a.to_json_dict() == b.to_json_dict()


def test_check_records_from_numpy_scalars_serialize():
    # comparisons of np.float64 yield np.bool_, which json refuses
    eq = equality_record("eq", np.float64(1.0), np.float64(1.0 + 1e-15), 1e-12)
    dev = deviation_record("dev", np.float64(2.0), np.float64(0.0), 1e-12)
    for rec in (eq, dev):
        assert type(rec.passed) is bool
        assert type(rec.lhs) is float and type(rec.rhs) is float
    assert eq.passed and dev.passed
    json.dumps(VerificationReport("s", [eq, dev]).to_json_dict())


def _uncached_moment_matrix(dim):
    alphas = multi_indices_up_to(dim, 4)
    return np.array([[Polynomial.monomial(dim, beta).diff_multi(alpha).integrate_box()
                      for beta in alphas] for alpha in alphas])


@pytest.mark.parametrize("dim", [2, 3])
def test_cached_moment_matrix_projects_like_a_fresh_one(dim):
    alphas = multi_indices_up_to(dim, 4)
    system = _uncached_moment_matrix(dim)
    assert np.array_equal(moment_matrix(dim), system)
    for alpha in multi_indices_up_to(dim, 6):
        f = Polynomial.monomial(dim, alpha)
        rhs = np.array([f.diff_multi(beta).integrate_box() for beta in alphas])
        sol = np.linalg.solve(system, rhs)
        expected = {exps: float(sol[c]) for c, exps in enumerate(alphas) if sol[c] != 0.0}
        assert moment_project(f).terms == expected


@pytest.mark.parametrize("dim", [2, 3])
def test_moment_matrix_is_cached_and_read_only(dim):
    first = moment_matrix(dim)
    hits = moment_matrix.cache_info().hits
    assert moment_matrix(dim) is first
    assert moment_matrix.cache_info().hits == hits + 1
    with pytest.raises(ValueError):
        first[0, 0] = 1.0


# ---------------------------------------------------------------------------
# the interpolation matrix and the identity forms against independent routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3])
def test_interpolation_reproduces_basis_and_annihilates_bubbles(dim):
    element = build_reference_element(dim)
    for i, row in enumerate(element.coeffs):
        phi = Polynomial.from_coefficients(dim, row)
        result = canonical_interpolate(element, phi)
        assert result.coefficients == pytest.approx(np.eye(element.ndof)[i], abs=1e-13)
        assert result.error.max_abs_coeff() < 1e-13
    for name, (_, bubble) in build_bubbles(dim).items():
        result = canonical_interpolate(element, bubble)
        assert np.max(np.abs(result.coefficients)) < 1e-13, name
        assert result.interpolant.max_abs_coeff() < 1e-13, name


@pytest.mark.parametrize("dim", [2, 3])
def test_identity_lhs_form_matches_quadrature_of_the_error_hessian(dim):
    # u - Pi u from the quadrature solve of the DOF system, Hessians at Gauss
    # points, the full contraction summed with weights.
    element = build_reference_element(dim)
    rule = tensor_rule(dim, 4)  # exact through degree 7
    hessian = [tuple(int(c == a) + int(c == b) for c in range(dim))
               for a in range(dim) for b in range(dim)]
    rng = np.random.default_rng(17 + dim)
    for _ in range(5):
        u = random_quartic(dim, rng)
        v = Polynomial(dim, dict(zip(element.monomials,
                                     rng.uniform(-1.0, 1.0, size=element.ndof))))
        h = rng.uniform(0.1, 1.0)
        error = u - oracle_interpolate(element, u)
        quad = np.einsum("pk,pk,p->", error.derivatives(hessian, rule.points),
                         v.derivatives(hessian, rule.points), rule.weights)
        lhs, _ = refined_identity_check(element, u, v, h)
        assert lhs == pytest.approx(h ** (dim - 4) * quad, abs=1e-12)


def replayed_pairs(dim, n_pairs, seed):
    """The refined-identity pairs drawn one pair at a time, as exponent maps:
    u's coefficients (the quartics in list order, less the mixed quartics in
    3D), then v's (the shape monomials in element order), then h."""
    element = build_reference_element(dim)
    u_alphas = [a for a in multi_indices_up_to(dim, 4) if sorted(a) != [1, 1, 2]]
    rng = np.random.default_rng(seed)
    for _ in range(n_pairs):
        u = Polynomial(dim, dict(zip(u_alphas, rng.uniform(-1.0, 1.0, size=len(u_alphas)))))
        v = Polynomial(dim, dict(zip(element.monomials,
                                     rng.uniform(-1.0, 1.0, size=element.ndof))))
        yield u, v, rng.uniform(0.1, 1.0)


def checked_pairs(monkeypatch, dim, n_pairs, seed):
    """The refined-identity suite's report, and (u, v, h, lhs, rhs) of each
    random pair it checked, in order."""
    seen, check = [], operators.refined_identity_check

    def recording(element, u, v, h=1.0):
        out = check(element, u, v, h)
        seen.append((u, v, h) + out)
        return out

    monkeypatch.setattr(operators, "refined_identity_check", recording)
    return run_refined_identity_suite(dim, n_pairs, seed), seen[:n_pairs]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 5, 1729])
@pytest.mark.parametrize("n_pairs", [1, 7, 200])
def test_refined_identity_suite_replays_one_draw_per_pair(dim, seed, n_pairs, monkeypatch):
    # The suite draws all pairs at once; each pair, and so the record, is
    # bit for bit the one of a draw per pair through the exponent-map
    # constructor.
    element = build_reference_element(dim)
    report, seen = checked_pairs(monkeypatch, dim, n_pairs, seed)
    worst = 0.0
    for (u, v, h), drawn in zip(replayed_pairs(dim, n_pairs, seed), seen, strict=True):
        lhs, rhs = refined_identity_check(element, u, v, h)
        assert np.array_equal(drawn[0].coeffs, u.coeffs)
        assert np.array_equal(drawn[1].coeffs, v.coeffs)
        assert drawn[2:] == (h, lhs, rhs)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    assert report.records[0] == equality_record(
        f"{dim}d/random-pairs/max-scaled-residual", worst, 0.0, 1e-10,
        note=f"{n_pairs} pairs, residual scaled by 1 + |lhs|")


@pytest.mark.parametrize("dim,u_first,v_first,h", [
    (2, (-0.9385159407896639, -0.6630850404701072), (0.8939276245932366, -0.7284196091816064),
     0.300359429377736),
    (3, (-0.9385159407896639, -0.6630850404701072), (-0.03341986994391899, 0.20386884005888817),
     0.739864286648261),
])
def test_first_random_pair_of_the_default_seed_is_pinned(dim, u_first, v_first, h, monkeypatch):
    # Each pair draws u's coefficients (the quartics in list order, less the
    # mixed quartics in 3D), then v's (the shape monomials in element order),
    # then h, one row of one uniform draw per pair; --seed S selects the same
    # pairs as before the coefficient-vector polynomials.
    from rectmorley.operators import DEFAULT_SEED

    element = build_reference_element(dim)
    u_alphas = tuple(a for a in multi_indices_up_to(dim, 4) if sorted(a) != [1, 1, 2])
    _, [(u, v, drawn_h, _, _)] = checked_pairs(monkeypatch, dim, 1, DEFAULT_SEED)
    row = np.random.default_rng(DEFAULT_SEED).uniform(
        [-1.0] * (len(u_alphas) + element.ndof) + [0.1], 1.0)
    u_coeffs, v_coeffs = row[:len(u_alphas)], row[len(u_alphas):-1]
    assert drawn_h == row[-1] == h
    assert tuple(u_coeffs[:2]) == u_first and tuple(v_coeffs[:2]) == v_first
    assert [u.coefficient(a) for a in u_alphas] == list(u_coeffs)
    assert [v.coefficient(m) for m in element.monomials] == list(v_coeffs)
    assert len(u.terms) == len(u_alphas) and len(v.terms) == element.ndof
