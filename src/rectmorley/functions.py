"""Smooth closed-form functions with analytic derivatives up to second order.

These drive interpolation studies and eigenvalue error identities.  Like
Polynomial, each answers derivatives(alphas, x): the partial derivative for
each multi-index in alphas at the points x (..., dim), on a new last axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SineProduct:
    """amplitude * prod_i sin(m_i pi x_i) on the unit box."""

    modes: tuple
    amplitude: float = 1.0

    def __post_init__(self):
        if any(not isinstance(m, (int, np.integer)) or m < 1 for m in self.modes):
            raise ValueError(f"modes must be positive integers, got {self.modes!r}")

    @property
    def dim(self) -> int:
        return len(self.modes)

    def derivatives(self, alphas, x):
        freq = np.pi * np.asarray(self.modes, dtype=float)
        arg = np.asarray(x, dtype=float) * freq
        s = np.sin(arg)
        # d^k/dx^k of sin(freq x) for k = 0, 1, 2, one column per axis.
        factors = (s, freq * np.cos(arg), -(freq ** 2) * s)
        return np.stack([self.amplitude * np.prod(
            [factors[k][..., axis] for axis, k in enumerate(alpha)], axis=0)
            for alpha in alphas], axis=-1)


def unit_box_eigenfunction(modes) -> SineProduct:
    """L2-normalized sine product on the unit box."""
    modes = tuple(int(m) for m in modes)
    return SineProduct(modes, amplitude=2.0 ** (len(modes) / 2.0))


def sine_eigenvalue(modes) -> float:
    """Biharmonic eigenvalue of the matching sine product: (sum m_i^2)^2 pi^4."""
    return float(sum(m * m for m in modes)) ** 2 * np.pi ** 4


@dataclass(frozen=True)
class ScaledFunction:
    """base function times a constant factor."""

    base: object
    factor: float

    @property
    def dim(self) -> int:
        return self.base.dim

    def derivatives(self, alphas, x):
        return self.factor * self.base.derivatives(alphas, x)
