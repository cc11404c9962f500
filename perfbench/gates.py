"""Correctness gates applied to every benchmark operation.

Each gate returns a list of failure messages; an empty list means the
operation's output is correct.  The reference values are arguments, so a
caller (or a test) can hand in its own.
"""

from __future__ import annotations

import math

TABLE_REL_TOL = 1e-3          # stored tables carry four decimals
PAIR_REL_TOL = 1e-8           # eigenvalues 2 and 3 form an exact pair on the square
INTERPOLATION_ORDERS = {0: 3.0, 1: 2.0, 2: 1.0}   # L2, H1, H2 seminorms
ORDER_TOL = 0.3


def eigen_bounds(values, exact=None, previous=None) -> list:
    """Lower-bound and monotonicity gates for one ladder rung.

    exact: closed-form eigenvalues (simply supported), which the discrete
    values must not exceed.  previous: the values of the next coarser rung,
    which the discrete values must not fall below.
    """
    failures = []
    for i, lam in enumerate(values):
        if exact is not None and lam > exact[i]:
            failures.append(f"eigenvalue {i + 1} = {lam!r} exceeds the closed form {exact[i]!r}")
        if previous is not None and lam < previous[i]:
            failures.append(f"eigenvalue {i + 1} = {lam!r} fell below the coarser {previous[i]!r}")
    return failures


def table_rung(values, reference, exact=None, previous=None) -> list:
    """Gate one table rung against its stored row and the eigenvalue bounds."""
    if len(values) != len(reference):
        return [f"got {len(values)} eigenvalues, the stored row has {len(reference)}"]
    failures = [
        f"eigenvalue {i + 1} = {lam!r} is off the stored {ref!r} by more than {TABLE_REL_TOL:g} relative"
        for i, (lam, ref) in enumerate(zip(values, reference))
        if abs(lam - ref) > TABLE_REL_TOL * abs(ref)
    ]
    return failures + eigen_bounds(values, exact, previous)


def fine_solve(values, coarser_row, exact=None) -> list:
    """Gate a solve finer than the stored ladder: bounds plus the exact pair 2 = 3."""
    if len(values) < 3:
        return [f"got {len(values)} eigenvalues, need at least 3"]
    failures = eigen_bounds(values, exact, coarser_row)
    if abs(values[1] - values[2]) > PAIR_REL_TOL * abs(values[1]):
        failures.append(f"pair 2 = 3 split: {values[1]!r} vs {values[2]!r}")
    return failures


def interpolation_orders(coarse, fine) -> list:
    """Gate observed interpolation orders between two rungs (n, {order: error})."""
    (n_coarse, err_coarse), (n_fine, err_fine) = coarse, fine
    failures = []
    for seminorm, expected in INTERPOLATION_ORDERS.items():
        rate = math.log(err_coarse[seminorm] / err_fine[seminorm]) / math.log(n_fine / n_coarse)
        if not abs(rate - expected) <= ORDER_TOL:
            failures.append(
                f"H{seminorm} interpolation order {rate:.3f} on n={n_coarse}->{n_fine} "
                f"is not within {ORDER_TOL} of {expected}"
            )
    return failures
