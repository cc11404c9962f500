"""Smooth closed-form functions with analytic derivatives up to second order.

These drive interpolation studies and eigenvalue error identities.  Like
Polynomial, each answers derivatives(alphas, x, offsets=None): the partial
derivative for each multi-index in alphas at the points x (..., dim), on a
new last axis.  With offsets of shape (q, dim) the points are
x[..., None, :] + offsets and the result has shape x.shape[:-1] +
(q, len(alphas)); quadrature passes cell centers and rule offsets this way,
so a sine product takes its sines and cosines of the two parts alone and
joins them by angle addition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_modes(modes):
    """Refuse sine modes that are not positive integers; a bool is not one."""
    if any(not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m < 1
           for m in modes):
        raise ValueError(f"modes must be positive integers, got {modes!r}")


@dataclass(frozen=True)
class SineProduct:
    """amplitude * prod_i sin(m_i pi x_i) on the unit box."""

    modes: tuple
    amplitude: float = 1.0

    def __post_init__(self):
        _check_modes(self.modes)

    @property
    def dim(self) -> int:
        return len(self.modes)

    def derivatives(self, alphas, x, offsets=None):
        dim = self.dim
        freq = np.pi * np.asarray(self.modes, dtype=float)
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != dim:
            raise ValueError(f"points must have {dim} coordinates")
        shape = x.shape[:-1]
        if offsets is None:
            offsets = np.zeros((1, dim))  # exact: cos 0 = 1 and sin 0 = 0
        else:
            offsets = np.asarray(offsets, dtype=float)
            shape += (len(offsets),)
        # freq (x + o) splits into B x dim base angles and q x dim offset
        # angles; angle addition gives sin and cos at all B x q points, laid
        # out (dim, B, q) so that every product below runs over contiguous rows.
        base = np.ascontiguousarray((x.reshape(-1, dim) * freq).T)[:, :, None]
        rule = np.ascontiguousarray((offsets * freq).T)[:, None, :]
        sin_b, cos_b, sin_o, cos_o = np.sin(base), np.cos(base), np.sin(rule), np.cos(rule)
        # table[k, axis]: d^k/dx^k of sin(freq x) along axis, for k = 0, 1, 2;
        # the amplitude rides on axis 0.
        scale = np.stack([np.ones(dim), freq, -freq ** 2])[:, :, None, None]
        scale[:, 0] *= self.amplitude
        table = np.empty((3, dim, base.shape[1], rule.shape[2]))
        np.multiply(sin_b, cos_o, out=table[0])
        table[0] += cos_b * sin_o
        np.multiply(cos_b, cos_o, out=table[1])
        table[1] -= sin_b * sin_o
        table[2] = table[0]
        table *= scale
        table = table.reshape(3 * dim, -1)
        # d^alpha is the product over the axes of table row alpha_axis * dim + axis,
        # formed in place: a fresh temporary per factor costs more time and memory.
        rows = np.asarray(alphas, dtype=np.int64).reshape(-1, dim) * dim + np.arange(dim)
        values = np.empty((len(rows), table.shape[1]))
        for out, row in zip(values, rows):
            np.copyto(out, table[row[0]])
            for r in row[1:]:
                out *= table[r]
        return values.T.reshape(shape + (len(rows),))


def unit_box_eigenfunction(modes) -> SineProduct:
    """L2-normalized sine product on the unit box."""
    modes = tuple(modes)
    return SineProduct(modes, amplitude=2.0 ** (len(modes) / 2.0))


def sine_eigenvalue(modes) -> float:
    """Biharmonic eigenvalue of the matching sine product: (sum m_i^2)^2 pi^4.

    It refuses the modes that SineProduct refuses.
    """
    _check_modes(modes)
    return float(sum(m * m for m in modes)) ** 2 * np.pi ** 4


@dataclass(frozen=True)
class ScaledFunction:
    """base function times a constant factor."""

    base: object
    factor: float

    @property
    def dim(self) -> int:
        return self.base.dim

    def derivatives(self, alphas, x, offsets=None):
        return self.factor * self.base.derivatives(alphas, x, offsets)
