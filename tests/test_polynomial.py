import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley.polynomial import Polynomial, multi_indices_up_to
from rectmorley.quadrature import facet_rule, tensor_rule


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


def test_exponents_must_be_non_negative_integers():
    # Integral entries of any numeric type are accepted as their integers.
    assert Polynomial(2, {(2.0, np.int32(1)): 3.0}).terms == {(2, 1): 3.0}
    for exps in ((1.5, 0), (0, 2.25), (-1, 0), (-0.5, 1)):
        with pytest.raises(ValueError, match="negative or non-integral exponent"):
            Polynomial(2, {exps: 1.0})
    with pytest.raises(ValueError, match="non-integral"):
        Polynomial(3, {(1, 0, 0): 1.0, (0, 0.5, 1): 2.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e30])
def test_exponents_without_an_integer_are_refused_before_the_cast(bad):
    # The test suite turns warnings into errors, so numpy's cast warning
    # would surface here instead of the refusal.
    with pytest.raises(ValueError, match="non-integral exponent"):
        Polynomial(2, {(bad, 0): 1.0})


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
        p.facet_mean(-1, 1)


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


def _arithmetic_results(p, q, scalar, axis):
    """Every kind of result the class's own arithmetic builds from p and q."""
    return [
        p + q, p - q, -p, p + scalar, scalar - p,
        scalar * p, p * scalar, p * q, p ** 2,
        p.diff(axis), p.diff(axis, order=2), p.diff_multi((1,) * p.dim),
    ]


@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       scalar=st.sampled_from([0.0, -1.0, 0.5, 3.0]))
def test_arithmetic_results_satisfy_the_public_invariant(dim, data, scalar):
    p = data.draw(small_polynomials(dim))
    q = data.draw(small_polynomials(dim))
    axis = data.draw(st.integers(min_value=0, max_value=dim - 1))
    for r in _arithmetic_results(p, q, scalar, axis):
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


# ---------------------------------------------------------------------------
# the coefficient-vector maps against an independent oracle: each term is
# evaluated, differentiated and integrated by hand, and integrals come from
# Gauss rules
# ---------------------------------------------------------------------------

def _random_terms(dim, rng, degree=4, count=6):
    exps = multi_indices_up_to(dim, degree)
    picks = rng.choice(len(exps), size=count, replace=False)
    return {exps[k]: float(rng.uniform(-1.0, 1.0)) for k in picks}


def _evaluate_terms(terms, x):
    x = np.asarray(x, dtype=float)
    return sum(c * np.prod(x ** np.array(e, dtype=float), axis=-1) for e, c in terms.items())


def _diff_terms(terms, alpha):
    out = {}
    for exps, c in terms.items():
        if all(e >= a for e, a in zip(exps, alpha)):
            factor = np.prod([math.perm(e, a) for e, a in zip(exps, alpha)])
            out[tuple(e - a for e, a in zip(exps, alpha))] = c * float(factor)
    return out


@pytest.mark.parametrize("dim", [2, 3])
def test_coefficient_maps_match_term_by_term_oracle(dim):
    rng = np.random.default_rng(40 + dim)
    rule = tensor_rule(dim, 5)  # exact through degree 9
    pts = rng.uniform(-1.0, 1.0, size=(7, dim))
    alphas = [alpha for alpha in itertools.product(range(3), repeat=dim) if sum(alpha) <= 3]
    for _ in range(5):
        p_terms, q_terms = _random_terms(dim, rng), _random_terms(dim, rng)
        p, q = Polynomial(dim, p_terms), Polynomial(dim, q_terms)
        assert p(pts) == pytest.approx(_evaluate_terms(p_terms, pts), abs=1e-13)
        assert (p * q)(pts) == pytest.approx(
            _evaluate_terms(p_terms, pts) * _evaluate_terms(q_terms, pts), abs=1e-13)
        assert p.integrate_box() == pytest.approx(
            _evaluate_terms(p_terms, rule.points) @ rule.weights, abs=1e-13)
        assert (p * q).integrate_box() == pytest.approx(
            (_evaluate_terms(p_terms, rule.points) * _evaluate_terms(q_terms, rule.points))
            @ rule.weights, abs=1e-13)
        for axis in range(dim):
            unit = tuple(int(a == axis) for a in range(dim))
            assert p.diff(axis)(pts) == pytest.approx(
                _evaluate_terms(_diff_terms(p_terms, unit), pts), abs=1e-12)
            for side in (-1, 1):
                facet = facet_rule(dim, axis, side, 5)
                assert p.facet_mean(axis, side) == pytest.approx(
                    _evaluate_terms(p_terms, facet.points) @ facet.weights
                    / facet.weights.sum(), abs=1e-13)
        table = p.derivatives(alphas, pts)
        assert table.shape == (len(pts), len(alphas))
        for j, alpha in enumerate(alphas):
            expected = _evaluate_terms(_diff_terms(p_terms, alpha), pts) + np.zeros(len(pts))
            assert table[:, j] == pytest.approx(expected, abs=1e-12)
            assert p.diff_multi(alpha).terms == pytest.approx(_diff_terms(p_terms, alpha))


def test_degree_bound_grows_past_the_largest_production_degree():
    # Products are not capped at degree 6: the monomial list is graded, so a
    # vector of a lower bound is a prefix of one of any higher bound.
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x ** 4 * y ** 3) * (x ** 2 + y) ** 2
    assert p.bound == 11 and p.degree() == 11
    assert p.terms == {(8, 3): 1.0, (6, 4): 2.0, (4, 5): 1.0}
    assert (p - p).degree() == -1
    assert Polynomial.from_coefficients(2, p.coeffs).terms == p.terms
    with pytest.raises(ValueError):
        Polynomial.from_coefficients(2, np.ones(4))  # no degree bound has 4 monomials
