"""Sparse multivariate polynomials with exact coefficient arithmetic.

Polynomials are stored as a map from exponent tuples to float coefficients.
All manipulation used by the element construction (products, derivatives,
box integrals, facet means) stays in this closed form, so reference-cell
quantities are computed without quadrature error.

The public constructor Polynomial(dim, terms) validates its input: exponent
tuples must have dim non-negative integer entries, repeated keys are summed
and coefficients are converted to float.  Results of the class's own
arithmetic (+, -, *, diff, substitute) are built by the private
Polynomial._from_terms, which trusts that its keys are already valid and
distinct and only drops exact zeros.
"""

from __future__ import annotations

import numbers

import numpy as np

from .quadrature import integrate_monomial_box

_DROP_TOL = 0.0  # exact zeros only; rounding noise is kept visible


class Polynomial:
    """Polynomial in `dim` variables, represented term by term."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        clean: dict[tuple, float] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(int(e) for e in exps)
            if len(key) != self.dim:
                raise ValueError(f"exponent tuple {key} does not match dim={self.dim}")
            if any(e < 0 for e in key):
                raise ValueError(f"negative exponent in {key}")
            c = clean.get(key, 0.0) + float(coeff)
            if c == _DROP_TOL:
                clean.pop(key, None)
            else:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _from_terms(cls, dim: int, terms: dict) -> Polynomial:
        """Wrap terms produced by this class's arithmetic without re-validating.

        The keys must already be distinct tuples of dim non-negative ints and
        the values floats; only exact zeros are dropped.
        """
        out = object.__new__(cls)
        out.dim = dim
        out.terms = {k: v for k, v in terms.items() if v != _DROP_TOL}
        return out

    # -- constructors ------------------------------------------------------

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
        exps = [0] * dim
        exps[axis] = 1
        return cls(dim, {tuple(exps): 1.0})

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0.0) + v
        return Polynomial._from_terms(self.dim, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __neg__(self):
        return Polynomial._from_terms(self.dim, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            scale = float(other)
            return Polynomial._from_terms(self.dim, {k: v * scale for k, v in self.terms.items()})
        other = self._coerce(other)
        out: dict[tuple, float] = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(a + b for a, b in zip(ka, kb))
                out[key] = out.get(key, 0.0) + va * vb
        return Polynomial._from_terms(self.dim, out)

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

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int, order: int = 1) -> Polynomial:
        """Partial derivative d^order / d xi_axis^order, computed exactly."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis out of range: {axis}")
        if order < 0:
            raise ValueError("derivative order must be nonnegative")
        out = self
        for _ in range(order):
            terms = {}
            for exps, coeff in out.terms.items():
                e = exps[axis]
                if e == 0:
                    continue
                key = exps[:axis] + (e - 1,) + exps[axis + 1:]
                terms[key] = terms.get(key, 0.0) + coeff * e
            out = Polynomial._from_terms(self.dim, terms)
        return out

    def diff_multi(self, alpha) -> Polynomial:
        """Mixed partial with multi-index alpha."""
        out = self
        for axis, order in enumerate(alpha):
            out = out.diff(axis, order)
        return out

    def substitute(self, axis: int, value: float) -> Polynomial:
        """Fix one coordinate, keeping the polynomial embedded in dim variables."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis out of range: {axis}")
        value = float(value)
        terms: dict[tuple, float] = {}
        for exps, coeff in self.terms.items():
            key = exps[:axis] + (0,) + exps[axis + 1:]
            terms[key] = terms.get(key, 0.0) + coeff * value ** exps[axis]
        return Polynomial._from_terms(self.dim, terms)

    # -- evaluation and integration -----------------------------------------

    def __call__(self, x):
        """Evaluate at one point (shape (dim,)) or many (shape (..., dim))."""
        pts = np.asarray(x, dtype=float)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        if pts.ndim == 1:
            point = pts.tolist()
            total = 0.0
            for exps, coeff in self.terms.items():
                term = coeff
                for xa, e in zip(point, exps):
                    if e:
                        term = term * xa ** e
                total += term
            return total
        vals = np.zeros(pts.shape[:-1])
        for exps, coeff in self.terms.items():
            term = np.full(pts.shape[:-1], coeff)
            for axis, e in enumerate(exps):
                if e:
                    term = term * pts[..., axis] ** e
            vals += term
        return vals

    def derivatives(self, alphas, x):
        """Mixed partial for each multi-index in alphas at the points x (..., dim),
        on a new last axis; each distinct multi-index is differentiated once."""
        alphas = [tuple(alpha) for alpha in alphas]
        columns = {alpha: self.diff_multi(alpha)(x) for alpha in dict.fromkeys(alphas)}
        return np.stack([columns[alpha] for alpha in alphas], axis=-1)

    def integrate_box(self) -> float:
        """Exact integral over [-1, 1]^dim."""
        return sum(c * integrate_monomial_box(e) for e, c in self.terms.items())

    def box_mean(self) -> float:
        return self.integrate_box() / 2.0 ** self.dim

    def facet_mean(self, axis: int, side: int) -> float:
        """Exact mean value over the facet xi_axis = side of the reference box."""
        if side not in (-1, 1):
            raise ValueError(f"side must be -1 or +1, got {side!r}")
        restricted = self.substitute(axis, side)
        total = 0.0
        for exps, coeff in restricted.terms.items():
            reduced = exps[:axis] + exps[axis + 1:]
            total += coeff * integrate_monomial_box(reduced)
        return total / 2.0 ** (self.dim - 1)

    # -- inspection ----------------------------------------------------------

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def almost_equal(self, other: Polynomial, tol: float = 1e-12) -> bool:
        return (self - other).max_abs_coeff() <= tol

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exps) if e) or "1"
            bits.append(f"{self.terms[exps]:+g} {mono}")
        return f"Polynomial({' '.join(bits)})"
