"""Symmetric generalized eigensolvers for the smallest eigenvalues.

The production route is ARPACK shift-invert around one no-pivot factorization
of A - sigma M in the order the pencil is given (finite element pencils come
numbered in nested-dissection order).  No copy of a repeated eigenvalue can
be skipped silently, because a solve is certified by spectrum slicing: the
no-pivot factor of A - tau M counts the eigenvalues below tau (Sylvester's
law of inertia, count_below), and solve_smallest with tau returns exactly
that many, completing a short slice with deflated ARPACK passes (Ericsson
and Ruhe, Math. Comp. 35, 1980; Grimes, Lewis and Simon, SIMAX 15, 1994).
The dense LAPACK path is the test oracle, and the fallback for pencils too
small for shift-invert.  Both return ascending eigenvalues with
mass-orthonormal eigenvectors and per-pair relative residuals.  The
shift-invert start vectors are fixed deterministic vectors (sin and cos of
the index), so repeated runs agree bit for bit without any random state.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as dla
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

RESIDUAL_TOL = 1e-8
# ARPACK convergence tolerance, reported as metadata["tol"].
ARPACK_TOL = 1e-10
# Relative margin of the certificate threshold tau = lambda_k (1 + REL_GAP):
# copies of lambda_k that differ from it by rounding count below tau.
REL_GAP = 1e-6
# Deflated ARPACK passes allowed to complete a slice short of its count.
COMPLETION_PASSES = 2

METHOD_DENSE = "dense"
METHOD_SHIFT_INVERT = "shift-invert"


@dataclass
class EigenResult:
    """Eigenvalues (ascending), M-orthonormal eigenvectors, and residuals.

    factor is the shift-invert factor that found them, kept only when the
    solve was asked to keep it (keep_factor), so that a later solve of the
    same pencil with this result as `known` needs no second SPD factor.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    method: str
    metadata: dict = field(default_factory=dict)
    factor: _ShiftedFactor | None = field(default=None, repr=False, compare=False)

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


def deterministic_start_vector(order: int, attempt: int = 0) -> np.ndarray:
    """Fixed ARPACK start vector of one attempt: sin(i), then cos(i), then sin(2i).

    Dense in every mesh symmetry class, unlike a constant vector, which is
    orthogonal to all antisymmetric eigenfunctions and silently skips them.
    A Krylov space sees one direction per distinct eigenvalue, so each
    deflated completion pass of smallest_k_shift_invert starts from a vector
    that is not a combination of the earlier ones.
    """
    index = np.arange(1, order + 1, dtype=float)
    wave = np.cos if attempt % 2 else np.sin
    return wave((attempt // 2 + 1) * index)


def _factor_no_pivot(mat):
    """SuperLU factor of a symmetric matrix in its given order, asked not to pivot."""
    return sla.splu(mat.tocsc(), permc_spec="NATURAL",
                    diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def count_below(A, M, tau: float) -> int:
    """Number of eigenvalues of the pencil (A, M) below tau.

    With M positive definite, the no-pivot factor of A - tau M is L D L^T
    with D = diag(U), and by Sylvester's law of inertia the negative entries
    of D count the eigenvalues below tau.  The count holds only for a factor
    that kept its diagonal pivots (perm_r == perm_c) and has no zero pivot;
    any other factor raises ValueError naming tau.  tau = inf counts every
    eigenvalue without a factor.  The factor is freed before returning.
    """
    a_csr = _as_csr(A)
    if tau == np.inf:
        return a_csr.shape[0]
    try:
        lu = _factor_no_pivot(a_csr - tau * _as_csr(M))
    except RuntimeError as exc:
        raise ValueError(f"no inertia count at tau={tau}: {exc}") from exc
    pivots = lu.U.diagonal()
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots != 0)):
        raise ValueError(f"no inertia count at tau={tau}: the factor left its "
                         "diagonal pivots or has a zero pivot")
    return int(np.count_nonzero(pivots < 0))


class _ShiftedFactor:
    """Solves with A - sigma M through one no-pivot factorization.

    The factor is of A - sigma M in the given order, without pivoting.  That
    is stable only when A - sigma M is positive definite; by Sylvester's law
    of inertia a pivot <= 0 shows it is not, and the constructor raises
    ValueError naming sigma.  `applications` counts solved right-hand sides.
    """

    def __init__(self, a_csr, m_csr, sigma: float):
        try:
            lu = _factor_no_pivot(a_csr - sigma * m_csr)
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


def _arpack(a_csr, m_csr, factor: _ShiftedFactor, k: int, sigma: float,
            attempt: int = 0, deflate=None):
    """k eigenpairs from one ARPACK run on the factor's operator, deflated
    off the M-orthonormal columns of `deflate` when given.  Returns the
    values, the vectors and whether ARPACK converged (partial pairs if not).

    An undeflated run keeps a Krylov basis of ncv = 2k + 1 vectors (at most
    order - 1), sized to the request as the ARPACK Users' Guide advises
    (ncv >= 2k; Lehoucq, Sorensen and Yang, 1998) instead of scipy's floor
    of 20; a deflated run keeps max(2k + 1, 20), at most the order left.
    """
    order = a_csr.shape[0]
    if deflate is None:
        ncv = min(order - 1, 2 * k + 1)
    else:
        ncv = min(order - deflate.shape[1], max(2 * k + 1, 20))
        deflate = (deflate, m_csr @ deflate)
    try:
        w, x = sla.eigsh(a_csr, k=k, M=m_csr, sigma=sigma, which="LM",
                         v0=deterministic_start_vector(order, attempt), tol=ARPACK_TOL,
                         ncv=ncv, OPinv=factor.operator(deflate))
    except sla.ArpackNoConvergence as exc:
        return exc.eigenvalues, exc.eigenvectors, False
    return w, x, True


def smallest_k_shift_invert(A, M, k: int, sigma: float = 0.0, tau: float | None = None,
                            known: EigenResult | None = None,
                            keep_factor: bool = False) -> EigenResult:
    """ARPACK shift-invert solver for the k smallest generalized eigenvalues.

    A - sigma*M must be positive definite: sigma below the smallest
    eigenvalue (negative when the stiffness matrix is only semidefinite).
    A single factorization, in the given order, serves three steps:

    1. ARPACK from deterministic_start_vector finds k eigenpairs, unless
       `known` (an earlier result of the same pencil) supplies pairs; its
       kept factor, if any, is reused instead of factoring again.
    2. With tau, the pencil owes k eigenvalues below tau (count_below).  A
       one-vector Krylov space sees one direction per distinct eigenvalue,
       so ARPACK can return one copy of a repeated eigenvalue and take the
       next one instead.  While fewer than k values lie below tau, a
       deflated pass (ARPACK on the operator projected M-orthogonally off
       the pairs found, from the next start vector) asks for exactly the
       missing number, at most COMPLETION_PASSES times; a slice still short,
       or over, is reported with converged=False.
    3. One block inverse-iteration step and a Rayleigh-Ritz step, which
       also leave the vectors M-orthonormal.

    The factor is freed on return, unless keep_factor keeps it on the
    result.  Partial results on non-convergence are returned with
    converged=False in the metadata.  opinv_applications counts the solves
    of this call and of `known`.
    """
    a_csr = _as_csr(A)
    m_csr = _as_csr(M)
    order = a_csr.shape[0]
    _check_k(k, order)
    if k == 0:
        return _empty_result(order, METHOD_SHIFT_INVERT)
    if k + 1 >= order:
        raise ValueError("shift-invert needs k < order - 1; use the dense solver")

    factor = getattr(known, "factor", None) or _ShiftedFactor(a_csr, m_csr, sigma)
    reused_applications = factor.applications
    if known is None:
        w, x, converged = _arpack(a_csr, m_csr, factor, k, sigma)
        ascending = np.argsort(w, kind="stable")
        w, x = w[ascending], x[:, ascending]
    else:
        w, x, converged = known.eigenvalues, known.eigenvectors, known.converged

    passes = 0
    if tau is not None:
        while converged and passes < COMPLETION_PASSES and np.count_nonzero(w < tau) < k:
            passes += 1
            mu, y, converged = _arpack(a_csr, m_csr, factor, k - np.count_nonzero(w < tau),
                                       sigma, attempt=passes, deflate=x)
            ascending = np.argsort(np.append(w, mu), kind="stable")
            w, x = np.append(w, mu)[ascending], np.column_stack([x, y])[:, ascending]
        converged = converged and np.count_nonzero(w < tau) == k

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
            "converged": bool(converged),
            "factor_nnz": factor.nnz,
            "opinv_applications": factor.applications - reused_applications,
        },
        factor=factor if keep_factor else None,
    )
    if known is not None:
        result.metadata["opinv_applications"] += known.metadata.get("opinv_applications", 0)
    residual_report(A, M, result)
    return result


def solve_smallest(A, M, k: int | None = None, method: str = "auto", sigma: float = 0.0,
                   tau: float | None = None, known: EigenResult | None = None,
                   keep_factor: bool = False) -> EigenResult:
    """The k smallest eigenpairs, or every eigenpair below tau.

    Give k or tau.  With tau, count_below sets k, the number of pairs the
    pencil owes below tau, and the result certifies them: it records
    metadata["tau"] and metadata["count_below_tau"], and converged holds
    only if exactly k of its eigenvalues lie below tau.  `known`, an earlier
    result of the same pencil, supplies pairs already found; no factor is
    built when they are all the pencil owes, nor when it owes none.  A count
    that cannot be trusted (count_below raises) gives the known pairs, or
    none, with count_below_tau None and converged=False.  keep_factor keeps
    the shift-invert factor on the result, so that a later solve of the
    same pencil with that result as `known` builds no second SPD factor.

    method 'auto' uses shift-invert whenever k + 1 < order, and the dense
    path only for the tiny pencils where it cannot run; method 'dense'
    always uses the dense path.
    """
    if method not in ("auto", METHOD_DENSE):
        raise ValueError(f"unknown solver method {method!r}")
    if (k is None) == (tau is None):
        raise ValueError("give either the number of eigenpairs k or the threshold tau")
    order = _as_csr(A).shape[0]
    if tau is not None:
        if known is None:
            have = _empty_result(order, METHOD_DENSE if method == METHOD_DENSE
                                 else METHOD_SHIFT_INVERT)
        else:
            have = replace(known, metadata=dict(known.metadata), factor=None)
        try:
            k = count_below(A, M, tau)
        except ValueError:
            return _certified(have, tau, None)
        if np.count_nonzero(have.eigenvalues < tau) >= k:
            return _certified(have, tau, k)
    if method == METHOD_DENSE or k + 1 >= order:
        result = smallest_k_dense(A, M, k)
    else:
        result = smallest_k_shift_invert(A, M, k, sigma=sigma, tau=tau, known=known,
                                         keep_factor=keep_factor)
    return result if tau is None else _certified(result, tau, k)


def _certified(result: EigenResult, tau: float, count) -> EigenResult:
    """Record the slice certificate on the result of a solve below tau."""
    found = int(np.count_nonzero(result.eigenvalues < tau))
    result.metadata.update(tau=float(tau), count_below_tau=count,
                           converged=result.converged and found == count)
    return result
