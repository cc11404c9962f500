import itertools
import math
import re

import numpy as np
import pytest

from rectmorley.assembly import derivative_alphas
from rectmorley.functions import (ScaledFunction, SineProduct, sine_eigenvalue,
                                  unit_box_eigenfunction)
from rectmorley.polynomial import Polynomial
from rectmorley.quadrature import tensor_rule


def value(func, x):
    return func.derivatives([(0,) * len(x)], x)[..., 0]


def gradient(func, x):
    return func.derivatives(derivative_alphas(len(x), 1), x)


def hessian(func, x):
    return func.derivatives(derivative_alphas(len(x), 2), x).reshape(len(x), len(x))


def finite_difference_gradient(func, x, step=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for a in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi[a] += step
        lo[a] -= step
        out[a] = (value(func, hi) - value(func, lo)) / (2.0 * step)
    return out


def finite_difference_hessian(func, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    d = x.size
    out = np.empty((d, d))
    for a in range(d):
        hi = x.copy()
        lo = x.copy()
        hi[a] += step
        lo[a] -= step
        out[a] = (gradient(func, hi) - gradient(func, lo)) / (2.0 * step)
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("modes", [(1, 1), (2, 1), (1, 2, 3)])
def test_sine_gradient_and_hessian_match_finite_differences(modes):
    f = SineProduct(modes=modes, amplitude=1.7)
    rng = np.random.default_rng(3)
    for _ in range(4):
        x = rng.uniform(0.05, 0.95, size=len(modes))
        assert gradient(f, x) == pytest.approx(
            finite_difference_gradient(f, x), abs=1e-8
        )
        assert hessian(f, x) == pytest.approx(
            finite_difference_hessian(f, x), abs=1e-6
        )


def _sine_pointwise(modes, amplitude):
    return lambda x: amplitude * math.prod(math.sin(m * math.pi * xi)
                                           for m, xi in zip(modes, x))


_CUBIC_3D = Polynomial(3, {(3, 0, 1): 1.0, (1, 2, 0): -0.5, (0, 1, 2): 2.0,
                           (0, 0, 1): 0.25})

ANALYTIC_INPUTS = [
    pytest.param(SineProduct((2, 1), amplitude=1.7), _sine_pointwise((2, 1), 1.7),
                 id="sine-2d"),
    pytest.param(SineProduct((1, 2, 3), amplitude=-0.6),
                 _sine_pointwise((1, 2, 3), -0.6), id="sine-3d"),
    pytest.param(_CUBIC_3D, _CUBIC_3D, id="polynomial"),
    pytest.param(ScaledFunction(SineProduct((1, 3)), -2.5),
                 _sine_pointwise((1, 3), -2.5), id="scaled"),
]


@pytest.mark.parametrize("f,pointwise", ANALYTIC_INPUTS)
def test_derivatives_match_central_differences(f, pointwise):
    # Order 0 is pointwise evaluation; each order-k derivative, in
    # derivative_alphas order, is the central difference along its first
    # axis of the order-(k-1) derivative over the remaining axes.
    step = 1e-6
    dim = f.dim
    x = np.random.default_rng(11).uniform(0.05, 0.95, size=(5, dim))
    values = f.derivatives(derivative_alphas(dim, 0), x)
    assert values.shape == (5, 1)
    assert values[:, 0] == pytest.approx([pointwise(p) for p in x], rel=1e-13, abs=1e-15)
    for k in (1, 2):
        got = f.derivatives(derivative_alphas(dim, k), x)
        assert got.shape == (5, dim ** k)
        for i, axes in enumerate(itertools.product(range(dim), repeat=k)):
            lower = [tuple(axes[1:].count(a) for a in range(dim))]
            shift = step * np.eye(dim)[axes[0]]
            diff = (f.derivatives(lower, x + shift) - f.derivatives(lower, x - shift))
            assert got[:, i] == pytest.approx(diff[:, 0] / (2.0 * step), rel=1e-6, abs=1e-5)


def test_sine_values_vectorize():
    f = SineProduct(modes=(2, 1))
    pts = np.array([[0.25, 0.5], [0.5, 0.5]])
    vals = f.derivatives([(0, 0)], pts)[:, 0]
    assert vals.shape == (2,)
    assert vals[0] == pytest.approx(math.sin(math.pi / 2) * math.sin(math.pi / 2))
    assert vals[1] == pytest.approx(0.0, abs=1e-15)
    grads = f.derivatives(derivative_alphas(2, 1), pts)
    assert grads.shape == (2, 2)
    hess = f.derivatives(derivative_alphas(2, 2), pts)
    assert hess.shape == (2, 4)
    assert f.derivatives(derivative_alphas(2, 2), pts[None]).shape == (1, 2, 4)


@pytest.mark.parametrize("modes", [(1, 1), (2, 3), (1, 1, 1), (2, 1, 3)])
def test_unit_box_eigenfunction_has_unit_l2_norm(modes):
    f = unit_box_eigenfunction(modes)
    dim = len(modes)
    # Map the [-1, 1]^dim rule onto the unit box.
    rule = tensor_rule(dim, 16)
    pts = 0.5 * (rule.points + 1.0)
    weights = rule.weights * 0.5 ** dim
    norm_sq = float(f.derivatives([(0,) * dim], pts)[:, 0] ** 2 @ weights)
    assert norm_sq == pytest.approx(1.0, abs=1e-9)


def test_sine_eigenvalue_closed_form():
    assert sine_eigenvalue((1, 1)) == pytest.approx(4.0 * math.pi ** 4)
    assert sine_eigenvalue((2, 1)) == pytest.approx(25.0 * math.pi ** 4)
    assert sine_eigenvalue((1, 1, 1)) == pytest.approx(9.0 * math.pi ** 4)


def test_eigenfunction_satisfies_biharmonic_equation():
    # The bilaplacian of a sine product is its eigenvalue times itself; with
    # separable modes the laplacian is -pi^2 (sum m_i^2) f, applied twice.
    f = unit_box_eigenfunction((2, 1))
    lam = sine_eigenvalue((2, 1))
    x = np.array([0.3, 0.7])
    lap = np.trace(hessian(f, x))
    assert lap == pytest.approx(-math.pi ** 2 * 5.0 * value(f, x), rel=1e-12)
    assert (math.pi ** 2 * 5.0) ** 2 == pytest.approx(lam)


def test_polynomial_function_derivatives():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = x ** 3 * y + y ** 2
    pt = np.array([0.5, -0.25])
    assert value(p, pt) == pytest.approx(p(pt))
    assert gradient(p, pt) == pytest.approx([p.diff(0)(pt), p.diff(1)(pt)])
    hess = hessian(p, pt)
    assert hess[0, 0] == pytest.approx(p.diff(0, 2)(pt))
    assert hess[0, 1] == pytest.approx(p.diff_multi((1, 1))(pt))
    assert hess[1, 0] == hess[0, 1]
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert p.derivatives([(0, 0)], pts).shape == (2, 1)
    assert p.derivatives(derivative_alphas(2, 1), pts).shape == (2, 2)
    assert p.derivatives(derivative_alphas(2, 2), pts).shape == (2, 4)


def test_scaled_function_scales_all_derivatives():
    base = SineProduct(modes=(1, 1))
    scaled = ScaledFunction(base, -2.5)
    x = np.array([0.3, 0.6])
    for order in (0, 1, 2):
        alphas = derivative_alphas(2, order)
        assert scaled.derivatives(alphas, x) == pytest.approx(
            -2.5 * base.derivatives(alphas, x))
    assert scaled.dim == 2


def test_sine_product_validates_modes():
    with pytest.raises(ValueError):
        SineProduct(modes=(0, 1))
    with pytest.raises(ValueError):
        SineProduct(modes=(1, -2))


@pytest.mark.parametrize("modes", [(1.5, 2.7), (0.5, 1), (2, True), (True, 1)])
def test_non_integral_and_bool_modes_are_refused_as_given(modes):
    # No mode is truncated to an integer, and the message names the input.
    with pytest.raises(ValueError, match=re.escape(repr(modes))):
        unit_box_eigenfunction(modes)
    with pytest.raises(ValueError, match=re.escape(repr(modes))):
        SineProduct(modes)
    assert unit_box_eigenfunction(np.array([2, 1])).modes == (2, 1)


@pytest.mark.parametrize("modes", [(1.5, 1), (0, 1), (True, 1), (-1, 1)])
def test_sine_eigenvalue_refuses_what_the_sine_product_refuses(modes):
    # identity37 pairs the two, so an eigenvalue exists only for a sine product.
    with pytest.raises(ValueError, match=re.escape(repr(modes))):
        sine_eigenvalue(modes)
    with pytest.raises(ValueError, match=re.escape(repr(modes))):
        SineProduct(modes)


def _random_inputs(dim, seed):
    """A random polynomial of degree at most 2 in each variable, a sine
    product with random modes in 1..4, and that sine scaled."""
    rng = np.random.default_rng(seed)
    poly = Polynomial(dim, {tuple(int(e) for e in rng.integers(0, 3, size=dim)):
                            float(rng.uniform(-1.0, 1.0)) for _ in range(8)})
    sine = SineProduct(tuple(int(m) for m in rng.integers(1, 5, size=dim)),
                       amplitude=float(rng.uniform(0.5, 2.0)))
    return poly, sine, ScaledFunction(sine, float(rng.uniform(-3.0, 3.0)))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_offsets_form_samples_the_summed_points(dim, seed):
    rng = np.random.default_rng(100 + seed)
    x = rng.uniform(0.0, 1.0, size=(2, 5, dim))
    offsets = rng.uniform(-0.1, 0.1, size=(7, dim))
    poly, *others = _random_inputs(dim, seed)
    for order in (0, 1, 2):
        alphas = derivative_alphas(dim, order)
        points = x[..., None, :] + offsets
        got = poly.derivatives(alphas, x, offsets)
        assert got.shape == (2, 5, 7, len(alphas))
        assert np.array_equal(got, poly.derivatives(alphas, points))
        for f in others:
            got, want = f.derivatives(alphas, x, offsets), f.derivatives(alphas, points)
            assert got.shape == want.shape == (2, 5, 7, len(alphas))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _sine_product_formula(f, alphas, x):
    """amplitude * prod over axes of the alpha_axis-th derivative of
    sin(m pi x_axis), sampled point by point."""
    freq = np.pi * np.asarray(f.modes, dtype=float)
    arg = x * freq
    s = np.sin(arg)
    factors = (s, freq * np.cos(arg), -(freq ** 2) * s)
    return np.stack([f.amplitude * np.prod([factors[k][..., axis]
                                            for axis, k in enumerate(alpha)], axis=0)
                     for alpha in alphas], axis=-1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [2, 3])
def test_sine_without_offsets_matches_the_product_formula(dim, seed):
    _, sine, _ = _random_inputs(dim, seed)
    x = np.random.default_rng(200 + seed).uniform(0.0, 1.0, size=(3, 4, dim))
    alphas = [alpha for order in (0, 1, 2) for alpha in derivative_alphas(dim, order)]
    got, want = sine.derivatives(alphas, x), _sine_product_formula(sine, alphas, x)
    assert got.shape == want.shape == (3, 4, len(alphas))
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_sine_rejects_points_of_another_dimension():
    with pytest.raises(ValueError):
        SineProduct((1, 2)).derivatives([(0, 0)], np.zeros((4, 3)))
