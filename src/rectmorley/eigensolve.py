"""Symmetric generalized eigensolvers for the smallest eigenvalues.

solve_smallest is the one entry point, for a pencil of two scipy sparse
matrices (every clamped block of cli.solve_problem on its dense route, and
library pencils).  No solve of cli.solve_problem on the auto route calls
it: those take their pairs from the symbol (symbol.py), so ARPACK now
serves only library callers.  Its route is ARPACK shift-invert at shift
0, around the no-pivot factor of the stiffness matrix A in the order the
pencil is given (a finite element pencil is assembled on
assembly.nested_dissection).  One factor type, the
no-pivot LDL^T of A - shift M (_ShiftedFactor), serves the solves at shift
0 and the default certificate: by Sylvester's law of inertia its negative
pivots count the eigenvalues below the shift (count_below), and the factor
of A must have none.  Every result is certified: a solve for the k
smallest pairs is counted below its own tau = lambda_k (1 + REL_GAP), a
solve below a given tau below that, and either returns exactly that count,
completing a short slice with deflated ARPACK passes (Ericsson and Ruhe,
Math. Comp. 35, 1980; Grimes, Lewis and Simon, SIMAX 15, 1994).  So no copy
of a repeated eigenvalue is skipped silently, and a k that cuts a cluster
gets all of it.  The count is a seam: a caller who can count without a
factor passes its own (the clamped blocks of cli.solve_problem's dense
route count from the symbol, capacitance.Capacitance.count), so that no
solve of theirs factors A - tau M; count_below, a factor of A - tau M, is the
default for library pencils and the tests' oracle.  A call builds at
most one SPD factor, and a k solve is completed on the factor that solved
it, so the default count of a k solve overlaps that factor.  The dense LAPACK path
(smallest_k_dense) is the test oracle, and the route for pencils too small
for shift-invert.  Both return ascending eigenvalues with mass-orthonormal
eigenvectors and per-pair relative residuals, and deterministic start
vectors (sin and cos of the index) make repeated runs agree bit for bit.
Pairs known without a solve (every block of cli.solve_problem on the auto
route, from symbol.py; the clamped ones after a smoothing step, smoothed,
and a Rayleigh-Ritz step, rayleigh_ritz, as ARPACK's) get the same
residual check and certificate from solved, count_owed and certified.  An
ARPACK run that stops short (ArpackNoConvergence) leaves the pairs it
found, and one that fails otherwise (ArpackError) none; neither result
converges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as dla
import scipy.sparse.linalg as sla

RESIDUAL_TOL = 1e-8
# ARPACK convergence tolerance of every shift-invert run.
ARPACK_TOL = 1e-10
# Relative margin of the certificate threshold tau = lambda_k (1 + REL_GAP):
# copies of lambda_k that differ from it by rounding count below tau.
REL_GAP = 1e-6
# Damping of the Jacobi step of smoothed, the classical 2/3.  The largest
# residual of a 2D n = 160 clamped solve, 1.1e-8 without the step, read
# 3.7e-9, 2.4e-9, 2.2e-9 and 2.1e-9 after one step at 0.5, 0.6, 0.7 and 2/3.
SMOOTHING = 2 / 3
# Deflated ARPACK passes allowed to complete a slice short of its count.
COMPLETION_PASSES = 2

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
    tighter than that there.
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


def deterministic_start_vector(order: int, attempt: int = 0) -> np.ndarray:
    """Fixed ARPACK start vector of one attempt: sin(i), then cos(i), then sin(2i).

    Dense in every mesh symmetry class, unlike a constant vector, which is
    orthogonal to all antisymmetric eigenfunctions and silently skips them.
    A Krylov space sees one direction per distinct eigenvalue, so each
    deflated completion pass of solve_smallest starts from a vector that is
    not a combination of the earlier ones.
    """
    index = np.arange(1, order + 1, dtype=float)
    wave = np.cos if attempt % 2 else np.sin
    return wave((attempt // 2 + 1) * index)


class _ShiftedFactor:
    """The no-pivot L D L^T factor of A - shift M, in the given order.

    SuperLU factors A - shift M asked not to pivot, with D = diag(U).  With
    M positive definite, by Sylvester's law of inertia the negative entries
    of D count the eigenvalues below shift: `negatives`.  The count holds
    only for a factor that kept its diagonal pivots (perm_r == perm_c) and
    has no zero (or NaN) pivot; for any other factor negatives is None.  A
    factor with no negative pivot is of a positive definite matrix, stable
    without pivoting, and solves the shift-invert systems.  SuperLU's
    RuntimeError on an exactly singular matrix propagates.  `applications`
    counts solved right-hand sides.
    """

    def __init__(self, A, M, shift: float):
        self.lu = sla.splu((A - shift * M).tocsc(), permc_spec="NATURAL",
                           diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        upper = self.lu.U
        pivots = upper.diagonal()
        diagonal = np.array_equal(self.lu.perm_r, self.lu.perm_c) and np.all(np.abs(pivots) > 0)
        self.negatives = int(np.count_nonzero(pivots < 0)) if diagonal else None
        self.nnz = int(self.lu.L.nnz + upper.nnz)
        self.applications = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self.applications += 1 if rhs.ndim == 1 else rhs.shape[1]
        return self.lu.solve(rhs)

    def operator(self, deflate=None) -> sla.LinearOperator:
        """(A - shift M)^-1 as a LinearOperator, optionally followed by the
        M-orthogonal projection off the M-orthonormal columns of `deflate`."""
        matvec = self.solve
        if deflate is not None:
            basis, m_basis = deflate

            def matvec(rhs):
                out = self.solve(rhs)
                return out - basis @ (m_basis.T @ out)

        order = self.lu.shape[0]
        return sla.LinearOperator((order, order), matvec=matvec, dtype=float)


def count_below(A, M, tau: float) -> int:
    """Number of eigenvalues of the pencil (A, M) below tau: the negative
    pivots of the _ShiftedFactor at tau.

    A factor that cannot count (SuperLU failed, left the diagonal pivots or
    met a zero pivot) raises ValueError naming tau, as does a NaN tau.
    tau = inf counts every eigenvalue and tau = -inf none, without a
    factor.  The factor is freed before returning.
    """
    if np.isnan(tau):
        raise ValueError(f"threshold tau must be a number or +-inf, got {tau}")
    if np.isinf(tau):
        return A.shape[0] if tau > 0 else 0
    try:
        negatives = _ShiftedFactor(A, M, tau).negatives
    except RuntimeError as exc:
        raise ValueError(f"no inertia count at tau={tau}: {exc}") from exc
    if negatives is None:
        raise ValueError(f"no inertia count at tau={tau}: the factor left its "
                         "diagonal pivots or has a zero pivot")
    return negatives


def _arpack(A, M, factor: _ShiftedFactor, k: int, attempt: int = 0, deflate=None):
    """k eigenpairs from one ARPACK run on the factor's operator, deflated
    off the M-orthonormal columns of `deflate` when given.  Returns the
    values, the vectors and whether ARPACK converged (partial pairs if not,
    none if ARPACK failed otherwise).

    An undeflated run keeps a Krylov basis of ncv = 2k + 1 vectors (at most
    order - 1), sized to the request as the ARPACK Users' Guide advises
    (ncv >= 2k; Lehoucq, Sorensen and Yang, 1998) instead of scipy's floor
    of 20; a deflated run keeps max(2k + 1, 20), at most the order left.
    """
    order = A.shape[0]
    if deflate is None:
        ncv = min(order - 1, 2 * k + 1)
    else:
        ncv = min(order - deflate.shape[1], max(2 * k + 1, 20))
        deflate = (deflate, M @ deflate)
    try:
        w, x = sla.eigsh(A, k=k, M=M, sigma=0.0, which="LM",
                         v0=deterministic_start_vector(order, attempt), tol=ARPACK_TOL,
                         ncv=ncv, OPinv=factor.operator(deflate))
    except sla.ArpackNoConvergence as exc:
        return exc.eigenvalues, exc.eigenvectors, False
    except sla.ArpackError:
        # Any other ARPACK failure (error 3, "no shifts could be applied",
        # at ncv = order - 1) leaves no pairs.
        return np.empty(0), np.empty((order, 0)), False
    return w, x, True


def _solve(A, M, k: int, tau: float, found: EigenResult, factor=None):
    """k pairs below tau, on the route of the pairs found so far (none, or
    those of a k solve that its count found short), and the SPD factor of A
    that solved for them (None if dense).  Dense pairs are solved for
    afresh, and so are pencils too small for the ARPACK run they need: one
    asks for fewer pairs than its basis, at most the order left after
    deflating the pairs found, less one with none found (k + 1 >= order).
    Shift-invert pairs are completed by steps 1 to 3 of solve_smallest on
    `factor`, built when None."""
    known = len(found.eigenvalues)
    missing = k - np.count_nonzero(found.eigenvalues < tau)
    if found.method == METHOD_DENSE or missing >= A.shape[0] - known - (known == 0):
        return smallest_k_dense(A, M, k), None
    if factor is None:
        try:
            factor = _ShiftedFactor(A, M, 0.0)
        except RuntimeError as exc:
            raise ValueError("shift-invert factorization of the stiffness matrix failed") from exc
        if factor.negatives != 0:
            raise ValueError("the stiffness matrix is not positive definite")
    w, x, converged = found.eigenvalues, found.eigenvectors, True
    # Pairs already found came from the attempt-0 start vector.
    attempt = int(len(w) > 0)
    while converged and attempt <= COMPLETION_PASSES and np.count_nonzero(w < tau) < k:
        mu, y, converged = _arpack(A, M, factor, k - np.count_nonzero(w < tau), attempt,
                                   x if attempt else None)
        attempt += 1
        ascending = np.argsort(np.append(w, mu), kind="stable")
        w, x = np.append(w, mu)[ascending], np.column_stack([x, y])[:, ascending]

    if x.shape[1]:
        w, x = rayleigh_ritz(A, M, factor.solve(M @ x))

    return solved(A, M, METHOD_SHIFT_INVERT, w, x, converged, factor_nnz=factor.nnz,
                  opinv_applications=factor.applications), factor


def solve_smallest(A, M, k: int | None = None, method: str = "auto",
                   tau: float | None = None, count=None) -> EigenResult:
    """The k smallest eigenpairs of the sparse pencil (A, M), or every
    eigenpair below tau, certified: no eigenvalue below the last is skipped.

    Give k or tau.  With tau, the pencil owes count(tau) pairs below tau:
    count is a callable from a finite tau to the number of eigenvalues
    below it, count_below(A, M, tau) by default (the inertia count of a
    factor of A - tau M); tau = +-inf owes every pair or none, uncounted.
    With k >= 1, k pairs are solved first, and tau is lambda_k (1 +
    REL_GAP): a k that cuts a cluster of copies of lambda_k gets the whole
    cluster, more than k pairs.  The result records metadata["tau"] and
    metadata["count_below_tau"], and converged holds only if exactly that
    many of its eigenvalues lie below tau.  A k solve that found every pair
    of the pencil, all below its tau, owes them all, and count is not
    called: a tau above the top eigenvalue may lie where count cannot
    count (on a pole of the symbol's capacitance matrix).  A count
    that cannot be trusted (count raises ValueError) leaves the pairs found,
    if any, with count_below_tau None and converged=False.  k=0 returns no
    pairs and no certificate; a NaN tau is refused with ValueError.

    method 'auto' uses shift-invert whenever the pairs first solved for
    number fewer than order - 1, and the dense path (smallest_k_dense) only
    for the tiny pencils where shift-invert cannot run; method 'dense'
    always uses the dense path, which solves for every pair owed afresh.

    Shift-invert runs at shift 0 and needs the stiffness matrix A positive
    definite; a pencil whose A is not is refused with ValueError.  One
    _ShiftedFactor of A serves three steps:

    1. ARPACK from deterministic_start_vector finds the pairs owed.
    2. A one-vector Krylov space sees one direction per distinct
       eigenvalue, so ARPACK can return one copy of a repeated eigenvalue
       and take the next one instead.  While fewer pairs than the count lie
       below tau, a deflated pass (ARPACK on the operator projected
       M-orthogonally off the pairs found, from the next start vector) asks
       for exactly the missing number, at most COMPLETION_PASSES times; a
       slice still short, or over, fails its certificate.
    3. One block inverse-iteration step and a Rayleigh-Ritz step, which
       also leave the vectors M-orthonormal.

    A k solve runs these steps without tau, counts, and when the count
    finds it short runs steps 2 and 3 again on the same factor, from the
    pairs it has: a call builds at most one SPD factor.  It is alive while
    the k solve counts, so the default count_below builds its factor of
    A - tau M beside it (a count from the symbol builds none).  Partial
    results on non-convergence are returned with converged=False in the
    metadata.  metadata["opinv_applications"] counts the solves of the one
    factor.
    """
    if method not in ("auto", METHOD_DENSE):
        raise ValueError(f"unknown solver method {method!r}")
    if (k is None) == (tau is None):
        raise ValueError("give either the number of eigenpairs k or the threshold tau")
    if tau is not None and np.isnan(tau):
        raise ValueError(f"threshold tau must be a number or +-inf, got {tau}")
    order = A.shape[0]
    found = solved(A, M, METHOD_DENSE if method == METHOD_DENSE else METHOD_SHIFT_INVERT,
                   np.empty(0), np.empty((order, 0)))
    factor = None
    if tau is None:
        _check_k(k, order)
        if k == 0:
            return found
        found, factor = _solve(A, M, k, np.inf, found)
        tau = tau_after(found.eigenvalues, k)
    owed = count_owed(found, tau, count or (lambda t: count_below(A, M, t)))
    if owed is None:
        return certified(found, tau, None)
    if found.converged and np.count_nonzero(found.eigenvalues < tau) < owed:
        found, _ = _solve(A, M, owed, tau, found, factor)
    return certified(found, tau, owed)


def count_owed(result: EigenResult, tau: float, count):
    """The number of pairs that a result below tau owes: count(tau), or None
    when count raises ValueError (it cannot count there).  tau = +-inf owes
    every pair of the pencil or none, and a result that holds every pair of
    its pencil, all below tau, owes them all: count is not called, as such
    a tau may lie where it cannot count (on a pole of the symbol's
    capacitance matrix)."""
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
