"""Interpolation operators, bubble functions, and the verification suites.

Everything here lives on the reference cell [-1, 1]^dim unless stated
otherwise.  The canonical interpolation matches the element's degrees of
freedom; the moment projection matches integral moments of derivatives up
to fourth order.  Verification suites package the identities these
operators satisfy (and the documented deviations from the published bubble
table) into structured pass/fail records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .element import SHAPE_DEGREE, ReferenceElement, build_reference_element, dof_matrix
from .polynomial import (Polynomial, derivative_form, derivative_integrals,
                         multi_indices_up_to, num_monomials)

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# bubble functions
# ---------------------------------------------------------------------------

def _phi_bubble(dim: int, i: int, j: int) -> Polynomial:
    # xi_i^2 xi_j - (4/3) xi_j + (1/3) xi_j^3
    xi = Polynomial.variable(dim, i)
    xj = Polynomial.variable(dim, j)
    return xi * xi * xj - (4.0 / 3.0) * xj + (1.0 / 3.0) * xj ** 3


def _psi_bubble(dim: int, i: int) -> Polynomial:
    # (xi_i^2 - 1)^2
    xi = Polynomial.variable(dim, i)
    return (xi * xi - 1.0) ** 2


def _p_bubble(dim: int, i: int, j: int) -> Polynomial:
    # xi_i^2 xi_j^2 - (xi_i^2 + xi_j^2 + 1) / 3
    xi2 = Polynomial.variable(dim, i) ** 2
    xj2 = Polynomial.variable(dim, j) ** 2
    return xi2 * xj2 - (1.0 / 3.0) * (xi2 + xj2 + 1.0)


def _p_bubble_published(dim: int, i: int, j: int) -> Polynomial:
    # xi_i^2 + xi_j^2 - xi_i^3/3 - xi_j^3/3 - 1/3; kept for deviation reports,
    # this form does not vanish at the corners.
    xi = Polynomial.variable(dim, i)
    xj = Polynomial.variable(dim, j)
    return xi ** 2 + xj ** 2 - (1.0 / 3.0) * xi ** 3 - (1.0 / 3.0) * xj ** 3 - 1.0 / 3.0


def _q_bubble(dim: int, i: int, j: int) -> Polynomial:
    # xi_i^3 xi_j - xi_i xi_j
    xi = Polynomial.variable(dim, i)
    xj = Polynomial.variable(dim, j)
    return xi ** 3 * xj - xi * xj


@dataclass(frozen=True)
class BubbleSet:
    """Error bubbles of the canonical interpolation, keyed by axis indices.

    All of phi, psi, p, q annihilate every degree of freedom of the element.
    p_published keeps the form from the printed bubble table, which fails the
    corner conditions; it is retained only so verification reports can show
    the deviation.
    """

    dim: int
    phi: dict
    psi: dict
    p: dict
    q: dict
    p_published: dict

    def corrected_items(self):
        for (i, j), poly in sorted(self.phi.items()):
            yield f"phi({i},{j})", poly
        for i, poly in sorted(self.psi.items()):
            yield f"psi({i})", poly
        for (i, j), poly in sorted(self.p.items()):
            yield f"p({i},{j})", poly
        for (i, j), poly in sorted(self.q.items()):
            yield f"q({i},{j})", poly

    @property
    def count(self) -> int:
        return len(self.phi) + len(self.psi) + len(self.p) + len(self.q)


def build_bubbles(dim: int) -> BubbleSet:
    """The 7 (2D) or 18 (3D) interpolation-error bubbles."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim!r}")
    ordered = [(i, j) for i in range(dim) for j in range(dim) if i != j]
    unordered = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return BubbleSet(
        dim=dim,
        phi={(i, j): _phi_bubble(dim, i, j) for i, j in ordered},
        psi={i: _psi_bubble(dim, i) for i in range(dim)},
        p={(i, j): _p_bubble(dim, i, j) for i, j in unordered},
        q={(i, j): _q_bubble(dim, i, j) for i, j in ordered},
        p_published={(i, j): _p_bubble_published(dim, i, j) for i, j in unordered},
    )


# ---------------------------------------------------------------------------
# canonical (degree-of-freedom) interpolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationResult:
    """Outcome of canonical interpolation of a polynomial on the reference cell.

    coefficients are the reference degrees of freedom of the input,
    interpolant is expressed in reference coordinates, and error is the exact
    residual input - interpolant.
    """

    coefficients: np.ndarray
    interpolant: Polynomial
    error: Polynomial


def canonical_interpolate(element: ReferenceElement, f: Polynomial) -> InterpolationResult:
    """Interpolate into the shape space by matching all degrees of freedom.

    The input is a Polynomial in reference coordinates and is handled exactly;
    analytic functions on a mesh go through assembly.interpolate_global.
    """
    if not isinstance(f, Polynomial):
        raise ValueError(
            f"canonical_interpolate takes a Polynomial, got {type(f).__name__}; "
            "interpolate analytic functions on a mesh with interpolate_global"
        )
    if f.dim != element.dim:
        raise ValueError("dimension mismatch")
    coeffs = dof_matrix(element.dim, f.bound) @ f.coeffs
    interpolant = Polynomial.from_coefficients(element.dim, coeffs @ element.coeffs)
    return InterpolationResult(coeffs, interpolant, f - interpolant)


# ---------------------------------------------------------------------------
# moment projection onto quartics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def moment_matrix(dim: int) -> np.ndarray:
    """Read-only matrix of int_box d^alpha x^beta over |alpha|, |beta| <= 4.

    Rows are the moments alpha and columns the quartic monomials beta, both
    in multi_indices_up_to(dim, 4) order: 15x15 in 2D, 35x35 in 3D.
    """
    return derivative_integrals(dim, 4, multi_indices_up_to(dim, 4))


def _moments_and_projection(f: Polynomial):
    """The derivative moments of f up to order 4 and the quartic coefficients
    of its projection."""
    moments = derivative_integrals(f.dim, f.bound, multi_indices_up_to(f.dim, 4)) @ f.coeffs
    # The moment matrix is square and nonsingular for this pairing; a failure
    # here means the index bookkeeping broke, not bad input.
    return moments, np.linalg.solve(moment_matrix(f.dim), moments)


def moment_project(f: Polynomial) -> Polynomial:
    """Projection onto quartics matching every derivative moment up to order 4.

    The projection P satisfies int_box d^alpha (P - f) = 0 for all |alpha| <= 4.
    """
    return Polynomial.from_coefficients(f.dim, _moments_and_projection(f)[1])


def commuting_discrepancy(f: Polynomial) -> float:
    """Max over |alpha| = 4 of |d^alpha P(f) - mean(d^alpha f)|.

    Fourth derivatives of the projection are constants, so projecting then
    differentiating should reproduce the mean of the derivative exactly.
    """
    moments, projection = _moments_and_projection(f)
    # d^alpha x^alpha = alpha!, so d^alpha P(f) = alpha! times P's alpha coefficient.
    return max(abs(math.prod(map(math.factorial, alpha)) * projection[r]
                   - moments[r] / 2.0 ** f.dim)
               for r, alpha in enumerate(multi_indices_up_to(f.dim, 4)) if sum(alpha) == 4)


# ---------------------------------------------------------------------------
# interpolation error structure on quartics
# ---------------------------------------------------------------------------

def bubble_expansion(bubbles: BubbleSet, f: Polynomial) -> Polynomial:
    """Interpolation error predicted by the bubble table for a quartic input.

    In reference coordinates the error of a quartic f decomposes as
        sum_{i != j} mean(f_iij)/2 * phi_ij  + sum_i f_iiii/24 * psi_i
      + sum_{i < j} f_iijj/4 * p_ij          + sum_{i != j} f_iiij/6 * q_ij
    with constant fourth derivatives.  In 3D the decomposition does not cover
    the mixed quartics xi_i^2 xi_j xi_k; callers probing those monomials will
    see the residual.
    """
    if f.dim != bubbles.dim:
        raise ValueError("dimension mismatch")
    if f.degree() > 4:
        raise ValueError("bubble expansion requires degree <= 4")
    out = Polynomial.zero(f.dim)
    for (i, j), poly in bubbles.phi.items():
        coeff = f.diff(i, 2).diff(j, 1).box_mean() / 2.0
        out = out + coeff * poly
    for i, poly in bubbles.psi.items():
        coeff = f.diff(i, 4).box_mean() / 24.0
        out = out + coeff * poly
    for (i, j), poly in bubbles.p.items():
        coeff = f.diff(i, 2).diff(j, 2).box_mean() / 4.0
        out = out + coeff * poly
    for (i, j), poly in bubbles.q.items():
        coeff = f.diff(i, 3).diff(j, 1).box_mean() / 6.0
        out = out + coeff * poly
    return out


@lru_cache(maxsize=None)
def _identity_forms(element: ReferenceElement, du: int, dv: int):
    """Matrices (L, R) with lhs = u L v and rhs = u R v on the reference
    element, for u of degree bound du and v of bound dv:
    L = (I - Pi)^T sum_ab D_ab^T G D_ab and R = sum_{i != j} (D_j^2 D_i)^T G D_i^3 / 3,
    where Pi is the canonical interpolation and G the box Gram matrix."""
    from .assembly import derivative_alphas

    dim = element.dim
    de = max(du, SHAPE_DEGREE)  # degree bound of u - Pi u
    residual = np.eye(num_monomials(dim, de), num_monomials(dim, du))
    residual[:element.coeffs.shape[1]] -= element.coeffs.T @ dof_matrix(dim, du)
    hessian = tuple((alpha, alpha) for alpha in derivative_alphas(dim, 2))
    unit = np.eye(dim, dtype=int)
    third = tuple((tuple(unit[i] + 2 * unit[j]), tuple(3 * unit[i]))
                  for i in range(dim) for j in range(dim) if i != j)
    lhs = residual.T @ derivative_form(dim, de, dv, hessian)
    rhs = derivative_form(dim, du, dv, third) / 3.0
    for form in (lhs, rhs):
        form.flags.writeable = False
    return lhs, rhs


def refined_identity_check(element: ReferenceElement, u: Polynomial, v: Polynomial,
                           h: float = 1.0):
    """Both sides of the refined interpolation identity on one cell.

    Left side: broken Hessian inner product of the interpolation error of u
    against v.  Right side: (h^2/3) sum_{i != j} int u_ijj v_iii in physical
    scaling.  For quartic u and shape-space v the two agree in 2D; in 3D the
    identity holds once the mixed quartics xi_i^2 xi_j xi_k are excluded.
    Both sides are bilinear forms in the coefficients of u and v, built once
    per degree bound.  Returns (lhs, rhs), both carrying the physical factor
    h^(dim-4).
    """
    dim = element.dim
    if u.dim != dim or v.dim != dim:
        raise ValueError("dimension mismatch")
    if h <= 0:
        raise ValueError(f"half-width must be positive, got {h!r}")
    lhs, rhs = _identity_forms(element, u.bound, v.bound)
    scale = float(h) ** (dim - 4)
    return scale * float(u.coeffs @ lhs @ v.coeffs), scale * float(u.coeffs @ rhs @ v.coeffs)


# ---------------------------------------------------------------------------
# global interpolation convergence probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceProbe:
    """Broken-seminorm interpolation errors across mesh refinements."""

    errors: dict
    orders: dict


def interpolation_convergence_probe(f, dim: int, n_values,
                                    orders=(0, 1, 2)) -> ConvergenceProbe:
    """Measure cellwise interpolation errors of an analytic function.

    For seminorm order l the error is the broken H^l seminorm of f minus its
    cellwise canonical interpolant; observed orders are least-squares slopes
    in log h.  Interpolation is purely local, so no boundary conditions enter:
    every vertex and facet value is gathered, constrained or not.
    """
    # Imported at call time, so that a caller who swaps these module
    # attributes (a tracer, a test double) sees every call.
    from .assembly import (broken_error_norms, cell_reference_coefficients,
                           entity_values)
    from .mesh import build_mesh

    element = build_reference_element(dim)
    errors = {l: [] for l in orders}
    h_values = []
    for n in n_values:
        mesh = build_mesh(dim, n)
        h_values.append(mesh.half_width)
        coeffs = cell_reference_coefficients(*entity_values(f, mesh), mesh, element)
        norms = broken_error_norms(f, coeffs, mesh, element, orders)
        for l in orders:
            errors[l].append(norms[l])

    h_arr = np.array(h_values)
    err_arrays = {l: np.array(vals) for l, vals in errors.items()}
    slopes = {}
    for l, vals in err_arrays.items():
        if len(vals) >= 2 and np.all(vals > 0):
            slopes[l] = float(np.polyfit(np.log(h_arr), np.log(vals), 1)[0])
        else:
            slopes[l] = float("nan")
    return ConvergenceProbe(err_arrays, slopes)


# ---------------------------------------------------------------------------
# verification records and suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    """One verified equality (or documented deviation) with its tolerance."""

    name: str
    lhs: float
    rhs: float
    tol: float
    passed: bool
    deviation: bool = False
    note: str = ""

    @property
    def abs_diff(self) -> float:
        return abs(self.lhs - self.rhs)


def equality_record(name, lhs, rhs, tol, note="") -> CheckRecord:
    return CheckRecord(name, float(lhs), float(rhs), tol,
                       passed=bool(abs(lhs - rhs) <= tol), note=note)


def deviation_record(name, lhs, rhs, tol, note="") -> CheckRecord:
    """A record that passes when the published claim demonstrably fails."""
    return CheckRecord(name, float(lhs), float(rhs), tol,
                       passed=bool(abs(lhs - rhs) > tol), deviation=True, note=note)


@dataclass
class VerificationReport:
    suite: str
    records: list = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": r.name,
                    "lhs": r.lhs,
                    "rhs": r.rhs,
                    "abs_diff": r.abs_diff,
                    "tol": r.tol,
                    "passed": r.passed,
                    "deviation": r.deviation,
                    "note": r.note,
                }
                for r in self.records
            ],
        }

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}" + (f" (seed={self.seed})" if self.seed is not None else "")]
        for r in self.records:
            status = "PASS" if r.passed else "FAIL"
            kind = " deviation" if r.deviation else ""
            lines.append(
                f"[{status}]{kind} {r.name}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} "
                f"|diff|={r.abs_diff:.3e} tol={r.tol:.1e}"
                + (f"  ({r.note})" if r.note else "")
            )
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _max_dof_value(element: ReferenceElement, poly: Polynomial) -> float:
    return float(np.max(np.abs(dof_matrix(element.dim, poly.bound) @ poly.coeffs)))


def run_bubble_suite(dims=(2, 3)) -> VerificationReport:
    """Every corrected bubble annihilates every DOF; the published p does not."""
    report = VerificationReport("bubbles")
    for dim in dims:
        element = build_reference_element(dim)
        bubbles = build_bubbles(dim)
        expected = 7 if dim == 2 else 18
        report.records.append(
            equality_record(f"{dim}d/count", bubbles.count, expected, 0.0)
        )
        for name, poly in bubbles.corrected_items():
            report.records.append(
                equality_record(
                    f"{dim}d/{name}/max-dof", _max_dof_value(element, poly), 0.0, 1e-12
                )
            )
        for (i, j), poly in sorted(bubbles.p_published.items()):
            report.records.append(
                deviation_record(
                    f"{dim}d/p-published({i},{j})/max-dof",
                    _max_dof_value(element, poly),
                    0.0,
                    1e-12,
                    note="published p does not vanish at corners; corrected "
                         "form xi_i^2 xi_j^2 - (xi_i^2 + xi_j^2 + 1)/3 is used",
                )
            )
    return report


def run_commuting_suite(dims=(2, 3), max_degree: int = 6) -> VerificationReport:
    """Projection then fourth derivative equals the averaged fourth derivative."""
    report = VerificationReport("commuting")
    for dim in dims:
        for degree in range(max_degree + 1):
            worst = 0.0
            for alpha in multi_indices_up_to(dim, max_degree):
                if sum(alpha) != degree:
                    continue
                worst = max(worst, commuting_discrepancy(Polynomial.monomial(dim, alpha)))
            report.records.append(
                equality_record(f"{dim}d/degree-{degree}/max-monomial", worst, 0.0, 1e-12)
            )
    return report


@lru_cache(maxsize=None)
def _coefficient_positions(dim: int, alphas: tuple):
    """Length of the coefficient vector over the monomial list that holds
    every exponent tuple of alphas, and the position of each in it."""
    listed = multi_indices_up_to(dim, max(sum(alpha) for alpha in alphas))
    return len(listed), np.array([listed.index(alpha) for alpha in alphas])


def _random_polynomial(dim, alphas, rng) -> Polynomial:
    """Uniform(-1, 1) coefficients on the distinct monomials alphas, drawn in their order."""
    width, positions = _coefficient_positions(dim, tuple(alphas))
    coeffs = np.zeros(width)
    coeffs[positions] = rng.uniform(-1.0, 1.0, size=len(positions))
    return Polynomial.from_coefficients(dim, coeffs)


def _random_pair(element: ReferenceElement, u_alphas, rng):
    """One draw of the refined-identity suite, in this order: u's
    coefficients on u_alphas, v's on the shape monomials, the half-width h."""
    u = _random_polynomial(element.dim, u_alphas, rng)
    v = _random_polynomial(element.dim, element.monomials, rng)
    return u, v, rng.uniform(0.1, 1.0)


def run_refined_identity_suite(dim: int, n_pairs: int = 200,
                               seed: int = DEFAULT_SEED) -> VerificationReport:
    """Randomized cellwise check of the refined interpolation identity.

    Quartic u against shape-space v on cells of random half-width.  In 3D the
    u samples exclude the mixed quartics xi_i^2 xi_j xi_k, where the identity
    genuinely fails; the documented counterexample is reported as a deviation.
    """
    element = build_reference_element(dim)
    report = VerificationReport(f"refined-identity-{dim}d", seed=seed)
    rng = np.random.default_rng(seed)

    u_alphas = multi_indices_up_to(dim, 4)
    if dim == 3:
        excluded = {a for a in u_alphas if sorted(a) == [1, 1, 2]}
        u_alphas = [a for a in u_alphas if a not in excluded]

    worst = 0.0
    for _ in range(n_pairs):
        u, v, h = _random_pair(element, u_alphas, rng)
        lhs, rhs = refined_identity_check(element, u, v, h)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    report.records.append(
        equality_record(
            f"{dim}d/random-pairs/max-scaled-residual", worst, 0.0, 1e-10,
            note=f"{n_pairs} pairs, residual scaled by 1 + |lhs|",
        )
    )

    if dim == 2:
        u = Polynomial(2, {(1, 2): 1.0})  # xi1 * xi2^2
        v = Polynomial(2, {(3, 0): 1.0})  # xi1^3
        lhs, rhs = refined_identity_check(element, u, v, h=1.0)
        report.records.append(
            equality_record("2d/worked-case/lhs-value", lhs, 16.0, 1e-10)
        )
        report.records.append(
            equality_record("2d/worked-case/identity", lhs, rhs, 1e-10)
        )
    else:
        u = Polynomial(3, {(2, 1, 1): 1.0})  # xi1^2 xi2 xi3
        v = Polynomial(3, {(0, 1, 1): 1.0})  # xi2 xi3
        lhs, rhs = refined_identity_check(element, u, v, h=1.0)
        report.records.append(
            equality_record(
                "3d/excluded-family/lhs-value", lhs, -32.0 / 3.0, 1e-10,
                note="interpolation error of xi1^2 xi2 xi3 is (xi1^2 - 1) xi2 xi3",
            )
        )
        report.records.append(
            deviation_record(
                "3d/excluded-family/identity-gap", lhs, rhs, 1.0,
                note="identity omits the mixed quartics xi_i^2 xi_j xi_k; "
                     "right side vanishes while the left side does not",
            )
        )
    return report


def run_eigen_identity_suite(n_values=(4, 8)):
    """Four-term eigenvalue error identity on the coarsest simply supported meshes.

    Uses the first eigenpair (simple eigenvalue, no cluster ambiguity) and
    checks the identity residual and its invariance under flipping the sign
    of the discrete eigenvector.
    """
    # Imported at call time, so that a caller who swaps these module
    # attributes (a tracer, a test double) sees every call.
    from .assembly import (FemField, assemble, build_dof_map,
                           eigen_error_identity_terms)
    from .eigensolve import smallest_k_dense
    from .functions import sine_eigenvalue, unit_box_eigenfunction
    from .mesh import build_mesh

    report = VerificationReport("eigenvalue-error-identity")
    element = build_reference_element(2)
    modes = (1, 1)
    u = unit_box_eigenfunction(modes)
    lam = sine_eigenvalue(modes)
    for n in n_values:
        mesh = build_mesh(2, n)
        dofmap = build_dof_map(mesh, "simply-supported")
        a_mat, m_mat = assemble(mesh, dofmap, element)
        result = smallest_k_dense(a_mat, m_mat, 1)
        lam_h = float(result.eigenvalues[0])
        u_h = FemField(dofmap, result.eigenvectors[:, 0])
        tol = 1e-6 * lam

        terms = eigen_error_identity_terms(lam, u, lam_h, u_h, mesh, dofmap,
                                           element, A=a_mat, M=m_mat)
        report.records.append(equality_record(
            f"2d-ss/n={n}/residual", terms.residual, 0.0, tol,
            note=f"lam_gap={terms.lam_gap:.6f} t1={terms.t1:.6f} t2={terms.t2:.6f} "
                 f"t3={terms.t3:.6f} t4={terms.t4:.6f}",
        ))
        flipped = FemField(dofmap, -result.eigenvectors[:, 0])
        terms_flip = eigen_error_identity_terms(lam, u, lam_h, flipped, mesh,
                                                dofmap, element, A=a_mat, M=m_mat)
        report.records.append(equality_record(
            f"2d-ss/n={n}/sign-flip-residual", terms_flip.residual, 0.0, tol,
            note="identity must not depend on the eigenvector sign",
        ))
    return report


def _interpolation_inputs(dim: int):
    """(name, function, expected L2/H1/H2 orders) of the interpolation suite.

    The mixed cubic x0^2 x1 has a constant mixed third derivative, which
    makes the generic orders of the sine eigenfunction sharp; the pure
    quartic x0^4 has no mixed third derivatives and gains one order in
    every norm.
    """
    from .functions import unit_box_eigenfunction

    def monomial(*exps):
        return Polynomial.monomial(dim, exps + (0,) * (dim - len(exps)))

    return (("sine", unit_box_eigenfunction((1,) * dim), (3.0, 2.0, 1.0)),
            ("mixed-cubic", monomial(2, 1), (3.0, 2.0, 1.0)),
            ("pure-quartic", monomial(4), (4.0, 3.0, 2.0)))


def run_interpolation_suite() -> VerificationReport:
    """Observed orders of the cellwise canonical interpolation error.

    For each dimension and input, the broken L2/H1/H2 error orders on the
    refinement ladder must lie within 0.3 of the expected ones.
    """
    report = VerificationReport("interpolation-convergence")
    for dim, n_values in ((2, (4, 8, 16)), (3, (2, 4, 8))):
        for name, f, expected in _interpolation_inputs(dim):
            probe = interpolation_convergence_probe(f, dim, n_values)
            for l, norm in enumerate(("L2", "H1", "H2")):
                report.records.append(equality_record(
                    f"{dim}d/{name}/{norm}-order", probe.orders[l], expected[l],
                    0.3, note=f"n={','.join(map(str, n_values))}",
                ))
    return report


# Verification suites by CLI name, in the order `verify all` runs them; each
# runner takes the seed of the randomized suites.
SUITES = {
    "bubbles": lambda seed: run_bubble_suite(),
    "lemma2d": lambda seed: run_refined_identity_suite(2, seed=seed),
    "lemma3d": lambda seed: run_refined_identity_suite(3, seed=seed),
    "commuting": lambda seed: run_commuting_suite(),
    "identity37": lambda seed: run_eigen_identity_suite(),
    "interpolation": lambda seed: run_interpolation_suite(),
}
