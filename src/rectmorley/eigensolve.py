"""Symmetric generalized eigensolvers for the smallest eigenvalues.

The production route is ARPACK shift-invert around one no-pivot factorization
of A - sigma M in the order the pencil is given (finite element pencils come
numbered in nested-dissection order), with a guard that no copy of a repeated
eigenvalue was skipped.
The dense LAPACK path is the test oracle, and the fallback for pencils too
small for shift-invert.  Both return ascending eigenvalues with
mass-orthonormal eigenvectors and per-pair relative residuals.  The
shift-invert start vectors are fixed deterministic vectors (sin and cos of
the index), so repeated runs agree bit for bit without any random state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

RESIDUAL_TOL = 1e-8
# ARPACK convergence tolerance, reported as metadata["tol"].
ARPACK_TOL = 1e-10
# The skipped-copy guard merges an eigenvalue found outside the first k only
# when it lies below lambda_k by more than this relative gap.
GUARD_REL_GAP = 1e-8

METHOD_DENSE = "dense"
METHOD_SHIFT_INVERT = "shift-invert"


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


def _as_csr(mat) -> sparse.csr_matrix:
    if sparse.issparse(mat):
        return mat.tocsr()
    return sparse.csr_matrix(np.asarray(mat, dtype=float))


def _empty_result(order: int, method: str) -> EigenResult:
    return EigenResult(
        eigenvalues=np.empty(0),
        eigenvectors=np.empty((order, 0)),
        residuals=np.empty(0),
        method=method,
        metadata={"order": order, "k": 0, "converged": True},
    )


def _check_k(k: int, order: int):
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"number of eigenvalues must be a nonnegative integer, got {k!r}")
    if k > order:
        raise ValueError(f"cannot request {k} eigenpairs of an order-{order} pencil")


def compute_residuals(A, M, eigenvalues, eigenvectors) -> np.ndarray:
    """Relative residuals ||A v - lam M v|| / ||A v|| per eigenpair."""
    a_csr = _as_csr(A)
    m_csr = _as_csr(M)
    out = np.empty(len(eigenvalues))
    for i, lam in enumerate(eigenvalues):
        v = eigenvectors[:, i]
        av = a_csr @ v
        denom = np.linalg.norm(av)
        out[i] = np.linalg.norm(av - lam * (m_csr @ v)) / (denom if denom > 0 else 1.0)
    return out


def residual_report(A, M, result: EigenResult) -> np.ndarray:
    """Recompute residuals, store them on the result, and flag convergence."""
    res = compute_residuals(A, M, result.eigenvalues, result.eigenvectors)
    result.residuals = res
    result.metadata["converged"] = bool(np.all(res <= RESIDUAL_TOL)) and \
        result.metadata.get("converged", True)
    return res


def smallest_k_dense(A, M, k: int) -> EigenResult:
    """Reference dense solver for the k smallest generalized eigenvalues.

    Its accuracy falls with the pencil order: past order ~3000 (2D simply
    supported n=40) its eigenvalues are good to only ~1e-9 relative (they
    differ from the Rayleigh quotients of its own vectors by that much, and
    residuals reach ~4e-9), so comparisons against this oracle cannot be
    tighter than that there.
    """
    a_csr = _as_csr(A)
    order = a_csr.shape[0]
    _check_k(k, order)
    if k == 0:
        return _empty_result(order, METHOD_DENSE)
    try:
        w, x = dla.eigh(a_csr.toarray(), _as_csr(M).toarray(),
                        subset_by_index=(0, k - 1))
    except dla.LinAlgError as exc:
        raise ValueError("mass matrix is not positive definite") from exc
    result = EigenResult(
        eigenvalues=w,
        eigenvectors=x,
        residuals=np.empty(0),
        method=METHOD_DENSE,
        metadata={"order": order, "k": int(k), "converged": True},
    )
    residual_report(A, M, result)
    return result


def deterministic_start_vector(order: int) -> np.ndarray:
    """Fixed ARPACK start vector: sin(1), sin(2), ...

    Dense in every mesh symmetry class, unlike a constant vector, which is
    orthogonal to all antisymmetric eigenfunctions and silently skips them.
    """
    return np.sin(np.arange(1, order + 1, dtype=float))


def guard_start_vector(order: int) -> np.ndarray:
    """Second fixed start vector, cos(1), cos(2), ..., for the skipped-copy guard."""
    return np.cos(np.arange(1, order + 1, dtype=float))


class _ShiftedFactor:
    """Solves with A - sigma M through one no-pivot factorization.

    The factor is of A - sigma M in the given order, without pivoting.  That
    is stable only when A - sigma M is positive definite; by Sylvester's law
    of inertia a pivot <= 0 shows it is not, and the constructor raises
    ValueError naming sigma.  `applications` counts solved right-hand sides.
    """

    def __init__(self, a_csr, m_csr, sigma: float):
        try:
            lu = sla.splu((a_csr - sigma * m_csr).tocsc(), permc_spec="NATURAL",
                          diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise ValueError(f"shift-invert factorization failed at sigma={sigma}") from exc
        upper = lu.U
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(upper.diagonal() > 0)):
            raise ValueError(
                f"A - sigma*M is not positive definite at sigma={sigma}; "
                "shift below the smallest eigenvalue"
            )
        self.lu = lu
        self.nnz = int(lu.L.nnz + upper.nnz)
        self.applications = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self.applications += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self.lu.solve(rhs)

    def operator(self, deflate=None) -> sla.LinearOperator:
        """(A - sigma M)^-1 as a LinearOperator, optionally followed by the
        M-orthogonal projection off the M-orthonormal columns of `deflate`."""
        matvec = self.solve
        if deflate is not None:
            basis, m_basis = deflate

            def matvec(rhs):
                out = self.solve(rhs)
                return out - basis @ (m_basis.T @ out)

        order = self.lu.shape[0]
        return sla.LinearOperator((order, order), matvec=matvec, dtype=float)


def smallest_k_shift_invert(A, M, k: int, sigma: float = 0.0) -> EigenResult:
    """ARPACK shift-invert solver for the k smallest generalized eigenvalues.

    A - sigma*M must be positive definite: sigma below the smallest
    eigenvalue (negative when the stiffness matrix is only semidefinite).
    A single factorization, in the given order, serves three steps:

    1. ARPACK from deterministic_start_vector finds k eigenpairs.
    2. The skipped-copy guard: a one-vector Krylov space sees one direction
       per distinct eigenvalue, so ARPACK can return one copy of a repeated
       eigenvalue and silently take the next one instead.  A k=1 ARPACK pass
       from guard_start_vector, on the operator projected M-orthogonally off
       the found vectors, finds the smallest eigenvalue mu left out.  While
       mu < lambda_k (1 - GUARD_REL_GAP) it is merged in and the pass is
       repeated; an equal mu (a cluster cut at k) ends the loop.
    3. One block inverse-iteration step and a Rayleigh-Ritz step, which
       also leave the vectors M-orthonormal.

    Partial results on non-convergence are returned with converged=False in
    the metadata.
    """
    a_csr = _as_csr(A)
    m_csr = _as_csr(M)
    order = a_csr.shape[0]
    _check_k(k, order)
    if k == 0:
        return _empty_result(order, METHOD_SHIFT_INVERT)
    if k + 1 >= order:
        raise ValueError("shift-invert needs k < order - 1; use the dense solver")

    factor = _ShiftedFactor(a_csr, m_csr, sigma)
    arpack_converged = True
    try:
        w, x = sla.eigsh(a_csr, k=k, M=m_csr, sigma=sigma, which="LM",
                         v0=deterministic_start_vector(order), tol=ARPACK_TOL,
                         OPinv=factor.operator())
    except sla.ArpackNoConvergence as exc:
        w, x = exc.eigenvalues, exc.eigenvectors
        arpack_converged = False
    ascending = np.argsort(w, kind="stable")
    w, x = w[ascending], x[:, ascending]

    guard_rounds = 0
    while arpack_converged and len(w) == k:
        guard_rounds += 1
        # ARPACK's vectors are M-orthonormal to working precision.
        deflated = factor.operator(deflate=(x, m_csr @ x))
        try:
            mu, y = sla.eigsh(a_csr, k=1, M=m_csr, sigma=sigma, which="LM",
                              v0=guard_start_vector(order), tol=ARPACK_TOL,
                              ncv=min(order - k, 20),
                              OPinv=deflated)
        except sla.ArpackNoConvergence:
            arpack_converged = False
            break
        if not mu[0] < w[-1] - GUARD_REL_GAP * abs(w[-1]):
            break
        keep = np.argsort(np.append(w, mu), kind="stable")[:k]
        w, x = np.append(w, mu)[keep], np.column_stack([x, y])[:, keep]

    if x.shape[1]:
        y = factor.solve(m_csr @ x)
        a_small = y.T @ (a_csr @ y)
        m_small = y.T @ (m_csr @ y)
        w, z = dla.eigh(0.5 * (a_small + a_small.T), 0.5 * (m_small + m_small.T))
        x = y @ z

    result = EigenResult(
        eigenvalues=w,
        eigenvectors=x,
        residuals=np.empty(0),
        method=METHOD_SHIFT_INVERT,
        metadata={
            "order": order,
            "k": int(k),
            "sigma": float(sigma),
            "tol": ARPACK_TOL,
            "converged": arpack_converged,
            "factor_nnz": factor.nnz,
            "opinv_applications": factor.applications,
            "guard_rounds": guard_rounds,
        },
    )
    residual_report(A, M, result)
    return result


def solve_smallest(A, M, k: int, method: str = "auto", sigma: float = 0.0) -> EigenResult:
    """Route to the shift-invert or dense solver.

    method 'auto' uses shift-invert whenever k + 1 < order, and the dense
    path only for the tiny pencils where it cannot run.
    """
    order = _as_csr(A).shape[0]
    if method == "auto":
        method = METHOD_SHIFT_INVERT if k + 1 < order else METHOD_DENSE
    if method == METHOD_DENSE:
        return smallest_k_dense(A, M, k)
    if method == METHOD_SHIFT_INVERT:
        return smallest_k_shift_invert(A, M, k, sigma=sigma)
    raise ValueError(f"unknown solver method {method!r}")
