"""Frozen benchmark eigenvalue tables and exact references for the unit box.

Each benchmark runs the first six biharmonic eigenvalues on the unit square
or cube for one boundary condition across a fixed refinement ladder.  The
simply supported problems have closed-form eigenvalues (sums of squared
sine modes to the fourth power of pi), so observed convergence orders are
reported against them; the clamped problems have no closed form and are
tracked through monotone refinement instead.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .functions import sine_eigenvalue

BENCHMARK_IDS = (1, 2, 3, 4)

# (dim, boundary condition) per benchmark id.
BENCHMARK_CONFIG = {
    1: (2, "clamped"),
    2: (2, "simply-supported"),
    3: (3, "clamped"),
    4: (3, "simply-supported"),
}

# Refinement ladders; the 3D ladder stops at N=16 (N=32 in 3D means 125,023
# clamped and 131,167 simply supported free DOFs).
BENCHMARK_N = {
    1: (4, 8, 12, 16, 32),
    2: (4, 8, 12, 16, 32),
    3: (4, 8, 12, 16),
    4: (4, 8, 12, 16),
}

MAX_CELLS_3D = 16

# Recomputed eigenvalues must match the stored ones below to this relative
# tolerance (the stored values carry 4 decimals).
STORED_REL_TOL = 1e-3

# Error order that richardson_reference assumes: lam - lam_h ~ C h^2.
RICHARDSON_ORDER = 2.0

# First six discrete eigenvalues per cell count, reported to 4 decimals.
BENCHMARK_VALUES = {
    1: {
        4: (1075.8563, 4481.4554, 4481.4554, 7697.5590, 15704.3199, 16296.5202),
        8: (1223.1076, 5017.6904, 5017.6904, 9953.5911, 16244.1142, 16520.5023),
        12: (1261.1771, 5205.0626, 5205.0626, 10819.5084, 16743.9469, 16955.9294),
        16: (1275.5592, 5280.6461, 5280.6461, 11183.7787, 16971.6555, 17162.3431),
        32: (1289.9935, 5359.1648, 5359.1648, 11572.2467, 17222.4239, 17393.3846),
    },
    2: {
        4: (347.5266, 2104.3141, 2104.3141, 4428.5078, 8883.3154, 8883.3154),
        8: (377.6791, 2323.3219, 2323.3219, 5560.4260, 9298.3330, 9298.3330),
        12: (384.1862, 2382.3420, 2382.3420, 5905.5665, 9516.2149, 9516.2149),
        16: (386.5430, 2404.8176, 2404.8176, 6042.8650, 9608.4258, 9608.4258),
        32: (388.8563, 2427.4598, 2427.4598, 6184.6886, 9706.2378, 9706.2378),
    },
    3: {
        4: (1714.3524, 5174.6283, 5174.6283, 5174.6283, 8539.6777, 8539.6777),
        8: (2136.8429, 6369.4367, 6369.4367, 6369.4367, 11655.1631, 11655.1631),
        12: (2255.9156, 6796.5628, 6796.5628, 6796.5628, 12920.9204, 12920.9204),
        16: (2302.1447, 6972.4742, 6972.4742, 6972.4742, 13468.3120, 13468.3120),
    },
    4: {
        4: (718.3621, 2720.0885, 2720.0885, 2720.0885, 5246.9541, 5246.9541),
        8: (828.0498, 3226.6792, 3226.6792, 3226.6792, 6842.3245, 6842.3245),
        12: (854.1259, 3372.2667, 3372.2667, 3372.2667, 7369.5014, 7369.5014),
        16: (863.7983, 3428.9320, 3428.9320, 3428.9320, 7584.7868, 7584.7868),
    },
}

# Observed convergence orders for the simply supported benchmarks, one value
# per refinement step of the ladder, per eigenvalue index.
BENCHMARK_RATES = {
    2: {
        0: (1.816267, 1.937758, 1.968793, 1.987512),
        1: (1.564173, 1.848565, 1.923527, 1.969013),
        2: (1.564173, 1.848565, 1.923527, 1.969013),
        3: (1.422239, 1.770756, 1.880399, 1.950661),
        4: (0.954369, 1.671838, 1.836346, 1.933997),
        5: (0.954369, 1.671838, 1.836346, 1.933997),
    },
    4: {
        0: (1.702863, 1.894823, 1.946762),
        1: (1.490027, 1.809503, 1.902066),
        2: (1.490027, 1.809503, 1.902066),
        3: (1.490027, 1.809503, 1.902066),
        4: (1.334896, 1.724958, 1.854797),
        5: (1.334896, 1.724958, 1.854797),
    },
}

def exact_eigenvalues(dim: int, k: int = 6) -> np.ndarray:
    """The k smallest simply supported eigenvalues on the unit box, ascending.

    They are sine_eigenvalue(m) = (sum_i m_i^2)^2 pi^4 over the sine modes m
    in {1, 2, ...}^dim.  The cube {1..q}^dim, q the least integer with
    q^dim >= k, holds k modes with sum_i m_i^2 <= dim q^2, so no mode with
    an entry above sqrt(dim q^2) is among the k smallest.
    """
    if dim < 1 or k < 0:
        raise ValueError(f"no exact values for dim={dim!r}, k={k!r}")
    q = next(q for q in itertools.count(1) if q ** dim >= k)
    top = math.isqrt(dim * q * q)
    values = [sine_eigenvalue(m) for m in itertools.product(range(1, top + 1), repeat=dim)]
    return np.sort(values)[:k]


def observed_rate(err_prev: float, err_cur: float, n_prev: int, n_cur: int) -> float:
    """Convergence order from consecutive errors on meshes with n_prev < n_cur cells."""
    if n_cur <= n_prev:
        raise ValueError("cell counts must increase")
    if err_prev <= 0 or err_cur <= 0:
        raise ValueError("errors must be positive to measure a rate")
    return math.log(err_prev / err_cur) / math.log(n_cur / n_prev)


def observed_rates(values, exact: float, n_values) -> list:
    """Orders for one eigenvalue across a refinement ladder (length len(n)-1).

    A step where either value is not below exact has no order; it is None.
    """
    out = []
    for k in range(1, len(n_values)):
        e_prev = exact - values[k - 1]
        e_cur = exact - values[k]
        out.append(observed_rate(e_prev, e_cur, n_values[k - 1], n_values[k])
                   if e_prev > 0 and e_cur > 0 else None)
    return out


def richardson_reference(values, n_values) -> float:
    """Extrapolated eigenvalue from the last two ladder entries.

    Assumes the asymptotic error model lam - lam_h ~ C h^RICHARDSON_ORDER;
    used to label rates for problems without a closed form, and marked as
    extrapolated in all outputs.  The rate of the last step against this
    reference is RICHARDSON_ORDER by construction, so it measures nothing.
    """
    if len(values) < 2:
        raise ValueError("need at least two values to extrapolate")
    lam_coarse, lam_fine = values[-2], values[-1]
    ratio = (n_values[-1] / n_values[-2]) ** RICHARDSON_ORDER
    return (ratio * lam_fine - lam_coarse) / (ratio - 1.0)
