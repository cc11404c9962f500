"""Exact multivariate polynomials as coefficient vectors over one monomial list.

The monomials in dim variables are listed by total degree, then by exponent
tuple (multi_indices_up_to); the list up to degree D is a prefix of the list
up to any higher D.  A polynomial of degree <= D is one coefficient vector
over that prefix, and every operation is a fixed map cached per dim and D:
differentiation gathers and scales coefficients by integers, a product is
one index table, box and facet integrals are dot products with moment
vectors, evaluation is one Vandermonde matmul, and an integral of products of
derivatives is one matrix (derivative_form).  All of it is closed form, so
reference-cell quantities carry no quadrature error.  The maps act on the
last axis of a coefficient array, so a stack of polynomials (an element's
basis matrix) goes through them at once.

The public constructor Polynomial(dim, terms) takes a map from exponent
tuples to coefficients and validates it; Polynomial.from_coefficients wraps
a vector already laid out over the list.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import lru_cache

import numpy as np

from .quadrature import integrate_monomial_box


@lru_cache(maxsize=None)
def multi_indices_up_to(dim: int, degree: int) -> tuple:
    """All exponent tuples with total degree <= degree, sorted by (degree, exps)."""
    out = [alpha for alpha in itertools.product(range(degree + 1), repeat=dim)
           if sum(alpha) <= degree]
    return tuple(sorted(out, key=lambda a: (sum(a), a)))


def num_monomials(dim: int, degree: int) -> int:
    return math.comb(dim + degree, dim)


@lru_cache(maxsize=None)
def _degree_of_width(dim: int, width: int) -> int:
    degree = next(d for d in itertools.count() if num_monomials(dim, d) >= width)
    if num_monomials(dim, degree) != width:
        raise ValueError(f"{width} coefficients fit no degree bound in {dim} variables")
    return degree


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _exponents(dim: int, degree: int) -> np.ndarray:
    return np.array(multi_indices_up_to(dim, degree), dtype=np.int64).reshape(-1, dim)


@lru_cache(maxsize=None)
def _positions(dim: int, degree: int) -> np.ndarray:
    """List position of each exponent tuple of the grid {0..degree}^dim, -1
    past the degree bound."""
    table = np.full((degree + 1,) * dim, -1, dtype=np.int64)
    table[tuple(_exponents(dim, degree).T)] = np.arange(num_monomials(dim, degree))
    return table


def _differentiated(exps: np.ndarray, alpha) -> tuple:
    """d^alpha x^e = factor * x^low for the exponents e on the last axis of
    exps (alpha broadcasts against them); factor is 0, and low clipped to 0,
    where an exponent runs out."""
    exps, alpha = np.broadcast_arrays(exps, np.asarray(alpha, dtype=np.int64))
    factor = np.ones(exps.shape[:-1])
    for k in range(int(alpha.max(initial=0))):
        factor = factor * np.where(k < alpha, exps - k, 1).prod(axis=-1)
    return np.maximum(exps - alpha, 0), factor


@lru_cache(maxsize=None)
def _diff_map(dim: int, degree: int, alpha: tuple):
    """d^alpha on coefficients of degree bound `degree`: the input at `source`
    times `factor` lands at `target`."""
    low, factor = _differentiated(_exponents(dim, degree), alpha)
    source = np.flatnonzero(factor)
    return _positions(dim, degree)[tuple(low[source].T)], source, factor[source]


def differentiate(dim: int, coeffs: np.ndarray, alpha) -> np.ndarray:
    """Coefficients of d^alpha of the polynomials on the last axis of coeffs;
    the degree bound drops by |alpha| (to no less than 0)."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != dim or min(alpha) < 0:
        raise ValueError(f"bad multi-index {alpha} for dim={dim}")
    degree = _degree_of_width(dim, coeffs.shape[-1])
    target, source, factor = _diff_map(dim, degree, alpha)
    out = np.zeros(coeffs.shape[:-1] + (num_monomials(dim, max(degree - sum(alpha), 0)),))
    out[..., target] = coeffs[..., source] * factor
    return out


@lru_cache(maxsize=None)
def _product_table(dim: int, da: int, db: int) -> np.ndarray:
    """List position of x^a x^b for each pair of monomials, flattened a-major."""
    exps = _exponents(dim, da)[:, None, :] + _exponents(dim, db)[None, :, :]
    return _positions(dim, da + db)[tuple(np.moveaxis(exps, -1, 0))].ravel()


@lru_cache(maxsize=None)
def derivative_integrals(dim: int, degree: int, alphas: tuple) -> np.ndarray:
    """Matrix of int_box d^alpha x^beta: one row per alpha in alphas, one
    column per monomial beta of degree <= degree."""
    low, factor = _differentiated(_exponents(dim, degree)[None, :, :],
                                  np.array(alphas, dtype=np.int64).reshape(len(alphas), 1, dim))
    return _read_only(factor * integrate_monomial_box(low))


@lru_cache(maxsize=None)
def derivative_form(dim: int, p: int, q: int, pairs: tuple) -> np.ndarray:
    """Matrix F with u F v = sum over (alpha, beta) in pairs of
    int_box d^alpha u d^beta v, for u of degree bound p and v of bound q."""
    exps_u, exps_v = _exponents(dim, p), _exponents(dim, q)
    form = np.zeros((len(exps_u), len(exps_v)))
    for alpha, beta in pairs:
        low_u, factor_u = _differentiated(exps_u, alpha)
        low_v, factor_v = _differentiated(exps_v, beta)
        form += (factor_u[:, None] * factor_v[None, :]
                 * integrate_monomial_box(low_u[:, None, :] + low_v[None, :, :]))
    return _read_only(form)


@lru_cache(maxsize=None)
def facet_moments(dim: int, degree: int, axis: int, side: int) -> np.ndarray:
    """Mean over the facet xi_axis = side of each monomial of degree <= degree."""
    exps = _exponents(dim, degree)
    return _read_only(float(side) ** exps[:, axis]
                      * integrate_monomial_box(np.delete(exps, axis, axis=1))
                      / 2.0 ** (dim - 1))


def _monomial_values(exps: np.ndarray, x) -> np.ndarray:
    """x^e for each row e of exps at the points x (..., dim): (..., len(exps))."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != exps.shape[1]:
        raise ValueError(f"points must have {exps.shape[1]} coordinates")
    powers = np.ones(x.shape + (int(exps.max(initial=0)) + 1,))
    for k in range(1, powers.shape[-1]):
        powers[..., k] = powers[..., k - 1] * x
    out = powers[..., 0, exps[:, 0]]
    for axis in range(1, exps.shape[1]):
        out = out * powers[..., axis, exps[:, axis]]
    return out


def vandermonde(dim: int, degree: int, x) -> np.ndarray:
    """Every monomial of degree <= degree at the points x (..., dim): (..., N)."""
    return _monomial_values(_exponents(dim, degree), x)


def tabulate(dim: int, coeffs: np.ndarray, alphas, x) -> np.ndarray:
    """Mixed partials d^alpha, alpha in alphas, at the points x (..., dim) of
    one polynomial (coeffs of shape (N,)): shape (..., len(alphas)); or of the
    rows of coeffs (m, N): shape (m, ..., len(alphas))."""
    coeffs = np.asarray(coeffs, dtype=float)
    width = coeffs.shape[-1]
    stacked = np.zeros((len(alphas),) + coeffs.shape)
    for j, alpha in enumerate(alphas):
        derivative = differentiate(dim, coeffs, alpha)
        stacked[j, ..., :derivative.shape[-1]] = derivative
    # One Vandermonde matmul, over the monomials some derivative uses.
    used = np.flatnonzero(stacked.reshape(-1, width).any(axis=0))
    vand = _monomial_values(_exponents(dim, _degree_of_width(dim, width))[used], x)
    rows = stacked[..., used].reshape(math.prod(stacked.shape[:-1]), len(used))
    values = (vand @ rows.T).reshape(vand.shape[:-1] + stacked.shape[:-1])
    return values if coeffs.ndim == 1 else np.moveaxis(values, -1, 0)


class Polynomial:
    """Polynomial in `dim` variables: coefficients over the monomials of
    degree <= bound, in multi_indices_up_to order."""

    __slots__ = ("dim", "bound", "coeffs")

    def __init__(self, dim: int, terms=None):
        """Exponent tuples have dim non-negative integer entries; equal ones add up."""
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        terms = terms or {}
        keys = np.array(list(terms))
        if terms and keys.shape != (len(terms), dim):
            raise ValueError(f"exponent tuples {list(terms)} do not match dim={dim}")
        keys = keys.reshape(len(terms), dim)
        # NaN, an infinity or a float past int64 has no integer to cast to.
        if keys.dtype.kind == "f" and not (np.abs(keys) < 2.0 ** 63).all():
            raise ValueError(f"negative or non-integral exponent in {list(terms)}")
        exps = keys.astype(np.int64, copy=False)
        # A negative or fractional entry differs from its truncation's magnitude.
        if (exps != np.abs(keys)).any():
            raise ValueError(f"negative or non-integral exponent in {list(terms)}")
        self.dim, self.bound = int(dim), int(exps.sum(axis=1).max(initial=0))
        self.coeffs = np.bincount(_positions(dim, self.bound)[tuple(exps.T)],
                                  weights=np.fromiter(terms.values(), float, len(terms)),
                                  minlength=num_monomials(dim, self.bound)).astype(float)

    @classmethod
    def from_coefficients(cls, dim: int, coeffs) -> Polynomial:
        """Wrap a coefficient vector laid out over multi_indices_up_to(dim, D)."""
        out = object.__new__(cls)
        out.coeffs = np.asarray(coeffs, dtype=float)
        out.dim, out.bound = int(dim), _degree_of_width(dim, out.coeffs.shape[-1])
        return out

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value: float) -> Polynomial:
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim: int, exponents, coeff: float = 1.0) -> Polynomial:
        return cls(dim, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, dim: int, axis: int) -> Polynomial:
        return cls(dim, {tuple(int(a == axis) for a in range(dim)): 1.0})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        longer, shorter = sorted((self.coeffs, self._coerce(other).coeffs), key=len,
                                 reverse=True)
        out = longer.copy()
        out[:len(shorter)] += shorter
        return Polynomial.from_coefficients(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return Polynomial.from_coefficients(self.dim, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Polynomial.from_coefficients(self.dim, self.coeffs * float(other))
        other = self._coerce(other)
        return Polynomial.from_coefficients(self.dim, np.bincount(
            _product_table(self.dim, self.bound, other.bound),
            weights=np.outer(self.coeffs, other.coeffs).ravel(),
            minlength=num_monomials(self.dim, self.bound + other.bound)))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(int(n)):
            out = out * self
        return out

    def _coerce(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        if isinstance(other, numbers.Real):
            return Polynomial.constant(self.dim, float(other))
        raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")

    # -- calculus, evaluation and integration --------------------------------

    def diff(self, axis: int, order: int = 1) -> Polynomial:
        """Partial derivative d^order / d xi_axis^order, computed exactly."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis out of range: {axis}")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        return self.diff_multi(tuple(order * int(a == axis) for a in range(self.dim)))

    def diff_multi(self, alpha) -> Polynomial:
        """Mixed partial with multi-index alpha."""
        return Polynomial.from_coefficients(self.dim,
                                            differentiate(self.dim, self.coeffs, alpha))

    def __call__(self, x):
        """Evaluate at one point (shape (dim,)) or many (shape (..., dim))."""
        vals = vandermonde(self.dim, self.bound, x) @ self.coeffs
        return float(vals) if np.ndim(x) == 1 else vals

    def derivatives(self, alphas, x, offsets=None):
        """Mixed partial for each multi-index in alphas at the points x (..., dim),
        on a new last axis; with offsets (q, dim), at the points
        x[..., None, :] + offsets."""
        if offsets is not None:
            x = np.asarray(x, dtype=float)[..., None, :] + offsets
        return tabulate(self.dim, self.coeffs, alphas, x)

    def integrate_box(self) -> float:
        """Exact integral over [-1, 1]^dim."""
        return float(self.coeffs @ integrate_monomial_box(_exponents(self.dim, self.bound)))

    def box_mean(self) -> float:
        return self.integrate_box() / 2.0 ** self.dim

    def facet_mean(self, axis: int, side: int) -> float:
        """Exact mean value over the facet xi_axis = side of the reference box."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis out of range: {axis}")
        if side not in (-1, 1):
            raise ValueError(f"side must be -1 or +1, got {side!r}")
        return float(self.coeffs @ facet_moments(self.dim, self.bound, axis, side))

    # -- inspection ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The nonzero coefficients by exponent tuple."""
        return {exps: float(c) for exps, c in
                zip(multi_indices_up_to(self.dim, self.bound), self.coeffs) if c != 0.0}

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        nonzero = np.flatnonzero(self.coeffs)
        return int(_exponents(self.dim, self.bound)[nonzero[-1]].sum()) if nonzero.size else -1

    def coefficient(self, exponents) -> float:
        exps = tuple(int(e) for e in exponents)
        if sum(exps) > self.bound:
            return 0.0
        return float(self.coeffs[_positions(self.dim, self.bound)[exps]])

    def max_abs_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs), initial=0.0))

    def almost_equal(self, other: Polynomial, tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    def __repr__(self):
        bits = [f"{coeff:+g} " + ("*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1")
                for exps, coeff in self.terms.items()]
        return f"Polynomial({' '.join(bits) or 0})"
