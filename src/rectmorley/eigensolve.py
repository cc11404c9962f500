"""Symmetric generalized eigensolvers for the smallest eigenvalues, and the
certificate of every solve.

solve_smallest is the one entry point for a pencil of two scipy sparse
matrices: every clamped block of cli.solve_problem on its dense route, and
library pencils.  No solve of cli.solve_problem on the auto route calls
it: those take their pairs from the symbol (symbol.py).  It takes the
pencil's whole spectrum from one call of LAPACK's dense generalized
eigensolver and certifies itself from it: every pair below tau =
lambda_k (1 + REL_GAP), or below a given tau, is kept and counted.  So no
copy of a repeated eigenvalue is skipped, a k that cuts a cluster gets all
of it, and the dense route checks the symbol's counts without using them.
smallest_k_dense, LAPACK's solver for the k smallest pairs alone, is the
tests' oracle and the identity suite's solver.  Results hold ascending
eigenvalues with mass-orthonormal eigenvectors and per-pair relative
residuals.  Pairs known without a solve (every block of cli.solve_problem
on the auto route, from symbol.py; the clamped ones after a smoothing
step, smoothed, and a Rayleigh-Ritz step, rayleigh_ritz) get the same
residual check and certificate from solved, count_owed and certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla

RESIDUAL_TOL = 1e-8
# Relative margin of the certificate threshold tau = lambda_k (1 + REL_GAP):
# copies of lambda_k that differ from it by rounding count below tau.
REL_GAP = 1e-6
# Damping of the Jacobi step of smoothed, the classical 2/3.  The largest
# residual of a 2D n = 160 clamped solve, 1.1e-8 without the step, read
# 3.7e-9, 2.4e-9, 2.2e-9 and 2.1e-9 after one step at 0.5, 0.6, 0.7 and 2/3.
SMOOTHING = 2 / 3

METHOD_DENSE = "dense"


@dataclass
class EigenResult:
    """Eigenvalues (ascending), M-orthonormal eigenvectors, and residuals."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    method: str
    metadata: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return bool(self.metadata.get("converged", True))


def _check_k(k: int, order: int):
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"number of eigenvalues must be a nonnegative integer, got {k!r}")
    if k > order:
        raise ValueError(f"cannot request {k} eigenpairs of an order-{order} pencil")


def compute_residuals(A, M, eigenvalues, eigenvectors) -> np.ndarray:
    """Relative residuals ||A v - lam M v|| / ||A v|| per eigenpair."""
    out = np.empty(len(eigenvalues))
    for i, lam in enumerate(eigenvalues):
        v = eigenvectors[:, i]
        av = A @ v
        denom = np.linalg.norm(av)
        out[i] = np.linalg.norm(av - lam * (M @ v)) / (denom if denom > 0 else 1.0)
    return out


def solved(A, M, method: str, eigenvalues, eigenvectors, converged: bool = True,
           **metadata) -> EigenResult:
    """The result of a solve of the pencil (A, M): its relative residuals,
    and metadata of the order, then converged (the solver's verdict and
    every residual within RESIDUAL_TOL), then the rest.  A and M are
    matrices or scipy LinearOperators (assembly.cell_operator): only their
    shape and their products with vectors are used."""
    residuals = compute_residuals(A, M, eigenvalues, eigenvectors)
    converged = bool(converged) and bool(np.all(residuals <= RESIDUAL_TOL))
    return EigenResult(eigenvalues, eigenvectors, residuals, method,
                       {"order": A.shape[0], "converged": converged, **metadata})


def rayleigh_ritz(A, M, basis: np.ndarray) -> tuple:
    """The Ritz pairs of the pencil (A, M) on the span of the columns of
    `basis`: ascending values and M-orthonormal vectors.  A and M may be
    scipy LinearOperators."""
    a_small = basis.T @ (A @ basis)
    m_small = basis.T @ (M @ basis)
    w, z = dla.eigh(0.5 * (a_small + a_small.T), 0.5 * (m_small + m_small.T))
    return w, basis @ z


def smoothed(A, M, diagonal: np.ndarray, eigenvalues, basis: np.ndarray) -> np.ndarray:
    """The columns of `basis`, approximate eigenvectors of (A, M) for
    `eigenvalues`, after one damped Jacobi step x - SMOOTHING (A x - lam M
    x) / diagonal, with `diagonal` that of A.  A vector summed from many
    modes (symbol.modes) carries rounding noise at every frequency, which
    the residual weighs by up to the pencil's largest eigenvalue; the step
    damps its high frequencies and keeps an exact eigenvector."""
    return basis - SMOOTHING * (A @ basis - (M @ basis) * eigenvalues) / diagonal[:, None]


def tau_after(values, k: int) -> float:
    """The certificate threshold of the k smallest of values: the k-th
    smallest times (1 + REL_GAP), so that every copy of it up to rounding
    lies below; inf when there are fewer than k values."""
    return np.partition(values, k - 1)[k - 1] * (1 + REL_GAP) if len(values) >= k else np.inf


def smallest_k_dense(A, M, k: int) -> EigenResult:
    """Reference dense solver for the k smallest generalized eigenvalues.

    Its accuracy falls with the pencil order: past order ~3000 (2D simply
    supported n=40) its eigenvalues are good to only ~1e-9 relative (they
    differ from the Rayleigh quotients of its own vectors by that much, and
    residuals reach ~4e-9), so comparisons against this oracle cannot be
    tighter than that there.  On the clamped parity blocks, against the
    symbol's pairs, this subset driver is off by at most 4.8e-13, 9.4e-11
    and 2.4e-9 relative at 2D n=12, 32 and 64 (order 385, 737 and 3009),
    and 4.7e-13 at 3D n=12 (773); the whole-spectrum driver of
    solve_smallest by 1.6e-12, 3.8e-11, 1.1e-10 and 2.2e-12.
    """
    order = A.shape[0]
    _check_k(k, order)
    w, x = np.empty(0), np.empty((order, 0))
    if k:
        try:
            w, x = dla.eigh(A.toarray(), M.toarray(), subset_by_index=(0, k - 1))
        except dla.LinAlgError as exc:
            raise ValueError("mass matrix is not positive definite") from exc
    return solved(A, M, METHOD_DENSE, w, x)


def solve_smallest(A, M, k: int | None = None, tau: float | None = None) -> EigenResult:
    """The k smallest eigenpairs of the sparse pencil (A, M), or every
    eigenpair below tau, certified: no eigenvalue below the last is skipped.

    Give k or tau.  The pencil's whole spectrum comes from one LAPACK call,
    and every pair of it below tau is kept: none for tau = -inf, all for
    inf.  With k >= 1, tau is lambda_k (1 + REL_GAP), so a k that cuts a
    cluster of copies of lambda_k gets the whole cluster, more than k
    pairs.  The number kept is the certificate: the result records
    metadata["tau"] and metadata["count_below_tau"], and converged holds
    when every kept pair passes its residual check.  k=0 returns no pairs
    and no certificate; a NaN tau is refused with ValueError.
    """
    if (k is None) == (tau is None):
        raise ValueError("give either the number of eigenpairs k or the threshold tau")
    if tau is not None and np.isnan(tau):
        raise ValueError(f"threshold tau must be a number or +-inf, got {tau}")
    order = A.shape[0]
    if tau is None:
        _check_k(k, order)
        if k == 0:
            return solved(A, M, METHOD_DENSE, np.empty(0), np.empty((order, 0)))
    try:
        w, x = dla.eigh(A.toarray(), M.toarray())
    except dla.LinAlgError as exc:
        raise ValueError("mass matrix is not positive definite") from exc
    if tau is None:
        tau = tau_after(w, k)
    below = int(np.searchsorted(w, tau))
    # A copy, so that the vectors above tau are freed with this call.
    return certified(solved(A, M, METHOD_DENSE, w[:below], x[:, :below].copy()), tau, below)


def count_owed(result: EigenResult, tau: float, count):
    """The number of pairs that a result below tau owes, for a route that
    takes its pairs and its count from different places (the symbol's
    clamped blocks: their Rayleigh-Ritz pairs, counted by capacitance.
    Capacitance.count): count(tau), or None when count raises ValueError
    (it cannot count there).  tau = +-inf owes every pair of the pencil or
    none, and a result that holds every pair of its pencil, all below tau,
    owes them all: count is not called, as such a tau may lie where it
    cannot count (on a pole of the symbol's capacitance matrix)."""
    order = result.metadata["order"]
    if not np.isfinite(tau) or (len(result.eigenvalues) == order
                                and np.all(result.eigenvalues < tau)):
        return order if tau > 0 else 0
    try:
        return count(tau)
    except ValueError:
        return None


def certified(result: EigenResult, tau: float, count) -> EigenResult:
    """Record the slice certificate on the result of a solve below tau that
    owes count pairs (None: untrusted): the one place that sets its verdict."""
    found = int(np.count_nonzero(result.eigenvalues < tau))
    result.metadata.update(tau=float(tau), count_below_tau=count,
                           converged=result.converged and found == count)
    return result
