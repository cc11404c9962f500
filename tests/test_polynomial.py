import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley.polynomial import Polynomial


def poly_from_terms(dim, terms):
    out = Polynomial.zero(dim)
    for exps, coeff in terms:
        out = out + Polynomial.monomial(dim, exps, coeff)
    return out


@st.composite
def small_polynomials(draw, dim=2):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = []
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(dim))
        coeff = draw(st.integers(min_value=-5, max_value=5))
        terms.append((exps, float(coeff)))
    return poly_from_terms(dim, terms)


def test_square_of_quadratic_expands_correctly():
    xi = Polynomial.variable(1, 0)
    quartic = (xi * xi - 1.0) ** 2
    assert quartic.coefficient((4,)) == pytest.approx(1.0)
    assert quartic.coefficient((2,)) == pytest.approx(-2.0)
    assert quartic.coefficient((0,)) == pytest.approx(1.0)
    assert quartic.coefficient((3,)) == 0.0
    assert quartic.degree() == 4


def test_arithmetic_drops_cancelled_terms():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) * (x - y) - x * x + y * y
    assert p.degree() == -1
    assert p.max_abs_coeff() == 0.0


def test_scalar_arithmetic_both_sides():
    x = Polynomial.variable(2, 0)
    assert (2.0 * x).coefficient((1, 0)) == pytest.approx(2.0)
    assert (x * 2.0).coefficient((1, 0)) == pytest.approx(2.0)
    assert (1.0 - x).coefficient((0, 0)) == pytest.approx(1.0)
    assert (1.0 - x).coefficient((1, 0)) == pytest.approx(-1.0)
    assert (1.0 + x).almost_equal(x + 1.0)


def test_diff_matches_hand_derivative():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 3 * y + 2.0 * y ** 2
    px = p.diff(0)
    assert px.almost_equal(3.0 * x ** 2 * y)
    pyy = p.diff(1, order=2)
    assert pyy.almost_equal(Polynomial.constant(2, 4.0))
    assert p.diff_multi((1, 1)).almost_equal(3.0 * x ** 2)
    assert p.diff_multi((0, 3)).degree() == -1


def test_substitute_pins_one_coordinate():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 * y - y ** 3
    edge = p.substitute(0, 1.0)
    assert edge.dim == 2
    assert edge.almost_equal(y - y ** 3)
    assert p.substitute(1, 0.0).degree() == -1
    assert p.substitute(0, 2.0).almost_equal(4.0 * y - y ** 3)


def test_call_accepts_single_point_and_batches():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 + 3.0 * y
    assert p(np.array([2.0, 1.0])) == pytest.approx(7.0)
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [-1.0, 2.0]])
    assert p(pts) == pytest.approx([0.0, 4.0, 7.0])


def test_integrate_box_and_facet_mean():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 2 * y ** 2
    assert p.integrate_box() == pytest.approx(4.0 / 9.0)
    assert p.box_mean() == pytest.approx(1.0 / 9.0)
    # On the edge xi_0 = +1 the mean of xi_1^2 is 1/3.
    assert p.facet_mean(0, 1) == pytest.approx(1.0 / 3.0)
    assert (x * y).facet_mean(0, -1) == pytest.approx(0.0)
    assert (x ** 3).facet_mean(0, 1) == pytest.approx(1.0)


def test_degree_and_zero_conventions():
    assert Polynomial.zero(3).degree() == -1
    assert Polynomial.constant(2, 5.0).degree() == 0
    p = Polynomial.monomial(3, (1, 1, 1))
    assert p.degree() == 3


def test_dimension_mismatch_rejected():
    p = Polynomial.variable(2, 0)
    q = Polynomial.variable(3, 0)
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_bad_axis_rejected():
    p = Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        p.diff(2)
    with pytest.raises(ValueError):
        p.substitute(-1, 0.0)


@settings(max_examples=60, deadline=None)
@given(p=small_polynomials(), q=small_polynomials())
def test_product_rule(p, q):
    lhs = (p * q).diff(0)
    rhs = p.diff(0) * q + p * q.diff(0)
    assert lhs.almost_equal(rhs, tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(p=small_polynomials())
def test_evaluation_is_linear_in_coefficients(p):
    pts = np.array([[0.3, -0.7], [1.0, 1.0], [-0.5, 0.25]])
    doubled = p * 2.0
    assert doubled(pts) == pytest.approx(2.0 * p(pts), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(p=small_polynomials())
def test_integrate_matches_quadrature(p):
    from rectmorley.quadrature import tensor_rule

    rule = tensor_rule(2, 4)
    quad = float(p(rule.points) @ rule.weights)
    assert p.integrate_box() == pytest.approx(quad, abs=1e-9)


def _arithmetic_results(p, q, scalar, axis, value):
    """Every kind of result the class's own arithmetic builds from p and q."""
    return [
        p + q, p - q, -p, p + scalar, scalar - p,
        scalar * p, p * scalar, p * q, p ** 2,
        p.diff(axis), p.diff(axis, order=2), p.diff_multi((1,) * p.dim),
        p.substitute(axis, value),
    ]


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       scalar=st.sampled_from([0.0, -1.0, 0.5, 3.0]),
       value=st.sampled_from([-1.0, 0.0, 0.25, 1.0]))
def test_arithmetic_results_satisfy_the_public_invariant(dim, data, scalar, value):
    p = data.draw(small_polynomials(dim))
    q = data.draw(small_polynomials(dim))
    axis = data.draw(st.integers(min_value=0, max_value=dim - 1))
    for r in _arithmetic_results(p, q, scalar, axis, value):
        assert r.dim == dim
        assert Polynomial(dim, r.terms).terms == r.terms
        for key, coeff in r.terms.items():
            assert type(key) is tuple and len(key) == dim
            assert all(type(e) is int and e >= 0 for e in key)
            assert type(coeff) is float and coeff != 0.0


@settings(max_examples=60, deadline=None)
@given(p=small_polynomials(),
       point=st.tuples(*[st.floats(min_value=-2.0, max_value=2.0)] * 2))
def test_single_point_evaluation_matches_batch(p, point):
    single = p(np.array(point))
    assert type(single) is float
    assert single == pytest.approx(p(np.array([point]))[0], rel=1e-14, abs=1e-14)
