import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectmorley.quadrature import (MAX_POINTS_1D, facet_rule, gauss_legendre_1d,
                                   integrate_monomial_box, tensor_rule)


def quad_apply(rule, func):
    return float(func(rule.points) @ rule.weights)


def test_single_point_rule_is_midpoint():
    rule = gauss_legendre_1d(1)
    assert rule.num_points == 1
    assert rule.points[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_two_point_nodes_match_closed_form():
    rule = gauss_legendre_1d(2)
    assert sorted(rule.points[:, 0]) == pytest.approx(
        [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], abs=1e-14
    )
    assert rule.weights == pytest.approx([1.0, 1.0], abs=1e-14)


def test_three_point_nodes_match_closed_form():
    rule = gauss_legendre_1d(3)
    nodes = sorted(rule.points[:, 0])
    root = math.sqrt(3.0 / 5.0)
    assert nodes == pytest.approx([-root, 0.0, root], abs=1e-14)
    weights = rule.weights[np.argsort(rule.points[:, 0])]
    assert weights == pytest.approx([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], abs=1e-14)


@pytest.mark.parametrize("n", range(1, MAX_POINTS_1D + 1))
def test_exact_to_degree_2n_minus_1(n):
    rule = gauss_legendre_1d(n)
    for degree in range(2 * n):
        quad = quad_apply(rule, lambda x, d=degree: x[:, 0] ** d)
        assert quad == pytest.approx(integrate_monomial_box((degree,)), abs=1e-13)


@pytest.mark.parametrize("bad", [0, -1, MAX_POINTS_1D + 1, 2.5, 3.0, [3]])
def test_rejects_unsupported_point_counts(bad):
    # Also after the shared 3-point rules are built: an equal float or an
    # unhashable count is refused as on a first call.
    gauss_legendre_1d(3), tensor_rule(2, 3)
    with pytest.raises(ValueError, match="point count"):
        gauss_legendre_1d(bad)
    with pytest.raises(ValueError, match="point count"):
        tensor_rule(2, bad)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_weight_sum_is_box_volume(dim):
    rule = tensor_rule(dim, 3)
    assert rule.num_points == 3 ** dim
    assert rule.weights.sum() == pytest.approx(2.0 ** dim, abs=1e-13)


def test_tensor_rule_even_and_odd_monomials():
    rule = tensor_rule(2, 4)
    assert quad_apply(rule, lambda x: x[:, 0] ** 6) == pytest.approx(
        integrate_monomial_box((6, 0)), abs=1e-13
    )
    assert quad_apply(rule, lambda x: x[:, 0] * x[:, 1]) == pytest.approx(0.0, abs=1e-14)


def test_facet_rule_pins_the_normal_coordinate():
    for dim in (2, 3):
        for axis in range(dim):
            for side in (-1, 1):
                rule = facet_rule(dim, axis, side, 3)
                assert rule.num_points == 3 ** (dim - 1)
                assert np.all(rule.points[:, axis] == float(side))
                assert rule.weights.sum() == pytest.approx(2.0 ** (dim - 1), abs=1e-13)


def test_facet_rule_integrates_tangential_monomial():
    # Edge xi_1 = +1 of the square: the edge integral of xi_0^2 is the 1D value 2/3.
    rule = facet_rule(2, 1, 1, 4)
    assert quad_apply(rule, lambda x: x[:, 0] ** 2) == pytest.approx(2.0 / 3.0, abs=1e-14)
    rule3 = facet_rule(3, 0, -1, 4)
    assert quad_apply(rule3, lambda x: x[:, 1] ** 2 * x[:, 2] ** 2) == pytest.approx(
        4.0 / 9.0, abs=1e-14
    )


def test_facet_rule_rejects_bad_arguments():
    with pytest.raises(ValueError):
        facet_rule(2, 2, 1, 3)
    with pytest.raises(ValueError):
        facet_rule(2, 0, 0, 3)
    with pytest.raises(ValueError):
        facet_rule(1, 0, 1, 3)


def test_integrate_monomial_box_closed_form():
    assert integrate_monomial_box(()) == 1.0
    assert integrate_monomial_box((0,)) == 2.0
    assert integrate_monomial_box((1,)) == 0.0
    assert integrate_monomial_box((2, 2)) == pytest.approx(4.0 / 9.0)
    assert integrate_monomial_box((2, 0, 4)) == pytest.approx((2.0 / 3.0) * 2.0 * (2.0 / 5.0))


def test_integrate_monomial_box_rejects_bad_exponents():
    with pytest.raises(ValueError):
        integrate_monomial_box((-1,))
    with pytest.raises(ValueError):
        integrate_monomial_box((1.5,))


@settings(max_examples=50, deadline=None)
@given(
    exps=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=3),
)
def test_tensor_rule_exact_on_monomials(exps):
    dim = len(exps)
    rule = tensor_rule(dim, 4)  # exact through per-axis degree 7

    def mono(x):
        out = np.ones(x.shape[0])
        for a, e in enumerate(exps):
            out = out * x[:, a] ** e
        return out

    assert quad_apply(rule, mono) == pytest.approx(
        integrate_monomial_box(tuple(exps)), abs=1e-12
    )


def test_shared_rules_are_read_only_and_facet_rules_are_copies():
    # The 1D and tensor rules are built once and shared, so no caller may
    # write them; each facet rule has arrays of its own.
    for rule in (gauss_legendre_1d(3), tensor_rule(2, 3), tensor_rule(3, 4)):
        for array in (rule.points, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    assert tensor_rule(2, 3) is tensor_rule(2, 3)
    # A float dimension is not served the equal integer's rule.
    with pytest.raises(TypeError):
        tensor_rule(2.0, 3)
    first, second = facet_rule(3, 1, -1, 4), facet_rule(3, 1, -1, 4)
    first.points[0, 0] = first.weights[0] = 7.0
    assert second.points[0, 0] != 7.0 and second.weights[0] != 7.0
    assert not np.shares_memory(first.weights, tensor_rule(2, 4).weights)
