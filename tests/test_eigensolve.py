import numpy as np
import pytest
import scipy.linalg as dla
from scipy import sparse

from rectmorley.assembly import BC_CLAMPED, BC_SIMPLY_SUPPORTED, assemble, build_dof_map
from rectmorley import eigensolve
from rectmorley.eigensolve import (METHOD_DENSE, REL_GAP, compute_residuals, smallest_k_dense,
                                   solve_smallest, solved)
from rectmorley.mesh import build_mesh


def assembled(dim, n, bc, element):
    """The pencil of the full box, in id order."""
    mesh = build_mesh(dim, n)
    return assemble(mesh, build_dof_map(mesh, bc), element)


# ---------------------------------------------------------------------------
# dense path
# ---------------------------------------------------------------------------

def test_dense_solver_on_known_pencil():
    a = sparse.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    m = sparse.identity(2, format="csr")
    result = smallest_k_dense(a, m, 2)
    assert result.eigenvalues == pytest.approx([1.0, 3.0])
    assert result.method == METHOD_DENSE
    assert result.converged
    assert np.all(result.residuals < 1e-12)


def test_dense_solver_generalized_diagonal():
    a = sparse.csr_matrix(np.diag([2.0, 12.0, 5.0]))
    m = sparse.csr_matrix(np.diag([1.0, 4.0, 1.0]))
    result = smallest_k_dense(a, m, 3)
    assert result.eigenvalues == pytest.approx([2.0, 3.0, 5.0])


def test_dense_vectors_are_mass_orthonormal(ref2):
    a_mat, m_mat = assembled(2, 3, BC_SIMPLY_SUPPORTED, ref2)
    result = smallest_k_dense(a_mat, m_mat, 5)
    gram = result.eigenvectors.T @ (m_mat @ result.eigenvectors)
    assert np.allclose(gram, np.eye(5), atol=1e-10)


def test_k_validation(ref2):
    a_mat, m_mat = assembled(2, 2, BC_CLAMPED, ref2)
    empty = smallest_k_dense(a_mat, m_mat, 0)
    assert empty.eigenvalues.size == 0
    assert empty.eigenvectors.shape == (a_mat.shape[0], 0)
    with pytest.raises(ValueError):
        smallest_k_dense(a_mat, m_mat, a_mat.shape[0] + 1)
    with pytest.raises(ValueError):
        smallest_k_dense(a_mat, m_mat, -1)


def test_dense_rejects_indefinite_mass():
    a = sparse.identity(2, format="csr")
    m = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="mass matrix"):
        smallest_k_dense(a, m, 1)


# ---------------------------------------------------------------------------
# the certified solve, and the tests' sparse oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_shift_invert_agrees_with_dense(bc, ref2, sparse_oracle):
    # The tests' sparse oracle (ARPACK in shift-invert mode) against LAPACK.
    a_mat, m_mat = assembled(2, 8, bc, ref2)
    dense = smallest_k_dense(a_mat, m_mat, 6)
    assert sparse_oracle(a_mat, m_mat) == pytest.approx(dense.eigenvalues, rel=1e-10)


def test_shift_invert_resolves_degenerate_pair(ref2, sparse_oracle):
    # The second and third eigenvalues coincide by symmetry; the sparse
    # oracle must return both copies, and so must solve_smallest, with
    # M-orthonormal vectors.
    a_mat, m_mat = assembled(2, 8, BC_SIMPLY_SUPPORTED, ref2)
    lam = sparse_oracle(a_mat, m_mat)
    assert abs(lam[1] - lam[2]) < 1e-8 * lam[1]
    result = solve_smallest(a_mat, m_mat, 3)
    assert result.eigenvalues == pytest.approx(lam[:3], rel=1e-10)
    gram = result.eigenvectors.T @ (m_mat @ result.eigenvectors)
    assert np.allclose(gram, np.eye(3), atol=1e-8)


def test_repeat_solves_are_bitwise_identical(ref2):
    a_mat, m_mat = assembled(2, 6, BC_SIMPLY_SUPPORTED, ref2)
    first = solve_smallest(a_mat, m_mat, 4)
    second = solve_smallest(a_mat, m_mat, 4)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


# Sizes 4, 10 and 16 are ones where ARPACK, asked for 6 pairs, returns one
# copy of the double eigenvalue at index 6 and takes the next one instead.
# The sparse oracle asks for 8.
@pytest.mark.parametrize("dim,n,bc", [
    *[(2, n, BC_SIMPLY_SUPPORTED) for n in range(4, 17)],
    (3, 4, BC_SIMPLY_SUPPORTED), (3, 6, BC_SIMPLY_SUPPORTED),
    (3, 4, BC_CLAMPED), (3, 6, BC_CLAMPED),
])
def test_ordered_shift_invert_matches_dense(dim, n, bc, ref2, ref3, sparse_oracle):
    a_mat, m_mat = assembled(dim, n, bc, ref2 if dim == 2 else ref3)
    dense = smallest_k_dense(a_mat, m_mat, 6)
    assert sparse_oracle(a_mat, m_mat) == pytest.approx(dense.eigenvalues, rel=1e-10)


def test_a_k_solve_returns_the_whole_cut_cluster(ref3):
    # k=6 cuts the 8539.68 triple of the 3D n=4 clamped pencil: the k solve
    # counts below its own lambda_6 (1 + REL_GAP) and returns all 7 values.
    a_mat, m_mat = assembled(3, 4, BC_CLAMPED, ref3)
    result = solve_smallest(a_mat, m_mat, 6)
    dense = smallest_k_dense(a_mat, m_mat, 8).eigenvalues
    assert result.converged
    assert np.isfinite(result.metadata["tau"])
    assert result.metadata["count_below_tau"] == 7 == len(result.eigenvalues)
    assert result.eigenvalues == pytest.approx(dense[:7], rel=1e-12)
    assert np.count_nonzero(np.abs(result.eigenvalues / 8539.678 - 1) < 1e-6) == 3


@pytest.mark.parametrize("dim,n,bc", [
    (2, 4, BC_SIMPLY_SUPPORTED), (2, 8, BC_SIMPLY_SUPPORTED),
    (3, 4, BC_CLAMPED), (3, 4, BC_SIMPLY_SUPPORTED),
])
def test_count_below_matches_the_dense_spectrum(dim, n, bc, ref2, ref3, count_below):
    # The tests' inertia-count oracle against LAPACK.
    a_mat, m_mat = assembled(dim, n, bc, ref2 if dim == 2 else ref3)
    spectrum = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
    gap = np.argmax(np.diff(spectrum[5:12])) + 5
    shifts = [spectrum[0] * (1 - REL_GAP), spectrum[0] * (1 + REL_GAP),
              spectrum[5] * (1 - REL_GAP), spectrum[5] * (1 + REL_GAP),
              0.5 * (spectrum[gap] + spectrum[gap + 1]), 2 * spectrum[-1]]
    for tau in shifts:
        assert count_below(a_mat, m_mat, tau) == np.count_nonzero(spectrum < tau)


def test_count_below_refuses_a_pivoted_factor(count_below):
    # A - tau M with a zero leading entry: SuperLU must leave the diagonal.
    a = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    m = sparse.identity(2, format="csr")
    with pytest.raises(ValueError, match="diagonal pivots"):
        count_below(a, m, 1.0)


def test_infinite_thresholds_count_without_a_factor_and_nan_is_refused(ref2, refuse_factors):
    # tau = -inf owes no pair and tau = inf every pair.
    a_mat, m_mat = assembled(2, 4, BC_CLAMPED, ref2)
    below = solve_smallest(a_mat, m_mat, tau=-np.inf)
    assert below.converged and below.eigenvalues.size == 0
    assert below.metadata["count_below_tau"] == 0
    every = solve_smallest(a_mat, m_mat, tau=np.inf)
    assert every.converged and every.metadata["count_below_tau"] == a_mat.shape[0]
    assert np.array_equal(every.eigenvalues, dla.eigh(a_mat.toarray(), m_mat.toarray())[0])
    assert every.eigenvalues == pytest.approx(
        smallest_k_dense(a_mat, m_mat, a_mat.shape[0]).eigenvalues, rel=1e-12)
    with pytest.raises(ValueError, match="tau must be a number.*nan"):
        solve_smallest(a_mat, m_mat, tau=np.nan)


def test_solve_below_owes_nothing_without_a_factor(ref2, monkeypatch, refuse_factors):
    # A threshold below lambda_1 owes no pair: the whole spectrum counts
    # none below it, no subset solve runs, and no factor is built.
    a_mat, m_mat = assembled(2, 6, BC_CLAMPED, ref2)
    asked = []

    def recorded(a_mat, m_mat, k):
        asked.append(k)
        return smallest_k_dense(a_mat, m_mat, k)

    monkeypatch.setattr(eigensolve, "smallest_k_dense", recorded)
    result = solve_smallest(a_mat, m_mat, tau=1.0)
    assert result.converged and result.eigenvalues.size == 0
    assert result.metadata["count_below_tau"] == 0
    assert asked == []
    with pytest.raises(ValueError, match="k or the threshold tau"):
        solve_smallest(a_mat, m_mat, 2, tau=1.0)


def test_ordered_repeat_solves_are_bitwise_identical(ref3):
    a_mat, m_mat = assembled(3, 4, BC_SIMPLY_SUPPORTED, ref3)
    first = solve_smallest(a_mat, m_mat, 6)
    second = solve_smallest(a_mat, m_mat, 6)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    assert first.metadata == second.metadata


# ---------------------------------------------------------------------------
# residual bookkeeping
# ---------------------------------------------------------------------------

def test_residual_report_flags_perturbed_vectors(ref2):
    # solved reports the residuals of the pairs it is given, and a pair off
    # by more than RESIDUAL_TOL is not converged, whatever the solver said.
    a_mat, m_mat = assembled(2, 3, BC_CLAMPED, ref2)
    result = smallest_k_dense(a_mat, m_mat, 2)
    assert result.converged
    rng = np.random.default_rng(0)
    vectors = result.eigenvectors + 0.05 * rng.standard_normal(result.eigenvectors.shape)
    perturbed = solved(a_mat, m_mat, METHOD_DENSE, result.eigenvalues, vectors)
    assert np.any(perturbed.residuals > 1e-8)
    assert not perturbed.converged
    assert not solved(a_mat, m_mat, METHOD_DENSE, result.eigenvalues,
                      result.eigenvectors, converged=False).converged


def test_compute_residuals_exact_pair():
    a = np.diag([1.0, 2.0])
    m = np.eye(2)
    res = compute_residuals(a, m, np.array([1.0]), np.array([[1.0], [0.0]]))
    assert res[0] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# invariances of the discrete spectrum
# ---------------------------------------------------------------------------

def test_spectrum_invariant_under_dof_permutation(ref2):
    a_mat, m_mat = assembled(2, 4, BC_SIMPLY_SUPPORTED, ref2)
    rng = np.random.default_rng(17)
    perm = rng.permutation(a_mat.shape[0])
    p = sparse.csr_matrix(
        (np.ones(a_mat.shape[0]), (np.arange(a_mat.shape[0]), perm)),
        shape=(a_mat.shape[0], a_mat.shape[0]),
    )
    a_perm = p @ a_mat @ p.T
    m_perm = p @ m_mat @ p.T
    base = smallest_k_dense(a_mat, m_mat, 4)
    permuted = smallest_k_dense(a_perm, m_perm, 4)
    assert permuted.eigenvalues == pytest.approx(base.eigenvalues, rel=1e-10)


@pytest.mark.parametrize("dim,bc,n", [
    (2, BC_CLAMPED, 4),
    (2, BC_SIMPLY_SUPPORTED, 2),
    (3, BC_CLAMPED, 2),
    (3, BC_SIMPLY_SUPPORTED, 2),
])
def test_eigenvalues_decrease_under_refinement(dim, bc, n, ref2, ref3):
    # The element converges from below on these problems, so each refinement
    # pushes the small eigenvalues up toward the continuous ones.  The very
    # coarse 2D clamped mesh (5 DOFs at n=2) cannot track the third mode yet,
    # so that case starts at n=4.
    element = ref2 if dim == 2 else ref3
    coarse_a, coarse_m = assembled(dim, n, bc, element)
    fine_a, fine_m = assembled(dim, 2 * n, bc, element)
    k = min(3, coarse_a.shape[0])
    coarse = smallest_k_dense(coarse_a, coarse_m, k)
    fine = smallest_k_dense(fine_a, fine_m, k)
    assert np.all(fine.eigenvalues[:k] > coarse.eigenvalues[:k])


# ---------------------------------------------------------------------------
# small pencils
# ---------------------------------------------------------------------------

def test_solve_smallest_routes_tiny_pencils_to_dense(ref2):
    a = sparse.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    m = sparse.identity(3, format="csr")
    result = solve_smallest(a, m, 2)
    assert result.method == METHOD_DENSE
    assert result.eigenvalues == pytest.approx([1.0, 2.0])
    # Up to every pair of an assembled pencil; more are refused.
    a_mat, m_mat = assembled(2, 2, BC_CLAMPED, ref2)
    order = a_mat.shape[0]
    for k in (order - 1, order):
        result = solve_smallest(a_mat, m_mat, k)
        assert result.method == METHOD_DENSE and result.converged
        assert len(result.eigenvalues) == k
    with pytest.raises(ValueError):
        solve_smallest(a_mat, m_mat, order + 1)


@pytest.mark.parametrize("dim,n", [(2, 2), (2, 3), (3, 3)])
def test_a_clamped_solve_of_every_pair_is_certified_without_a_count(dim, n, ref2, ref3,
                                                                    monkeypatch):
    # k = order: every pair found lies below tau, so the slice owes them all.
    # The symbol could not count there: at 2D n=2 the top clamped eigenvalue
    # sits 1e-6 below the simply supported pole of p = (1, 1), inside tau.
    from rectmorley import capacitance, cli

    def refused(*args):
        raise AssertionError("counted")

    a_mat, m_mat = assembled(dim, n, BC_CLAMPED, ref2 if dim == 2 else ref3)
    order = a_mat.shape[0]
    monkeypatch.setattr(capacitance.Capacitance, "count", refused)
    result = cli.solve_problem(dim, n, BC_CLAMPED, k=order)
    assert result.converged
    assert result.metadata["blocks"][0]["count_below_tau"] == order == result.metadata["k_closed"]
    dense = smallest_k_dense(a_mat, m_mat, order).eigenvalues
    assert np.max(np.abs(result.eigenvalues - dense) / dense) <= 1e-10


def test_tau_after_is_the_kth_smallest_value_with_its_margin():
    values = np.array([3.0, 1.0, 2.0, 2.0])
    assert eigensolve.tau_after(values, 1) == 1.0 * (1 + REL_GAP)
    assert eigensolve.tau_after(values, 3) == 2.0 * (1 + REL_GAP)
    assert eigensolve.tau_after(values, 5) == np.inf


def test_smoothing_keeps_eigenvectors_and_damps_their_noise(ref2):
    # On the 2D n=12 clamped pencil: exact eigenvectors move by rounding
    # alone, and relative noise at every DOF, as a sum of many modes
    # carries, leaves residuals at least three times smaller after one step.
    a_mat, m_mat = assembled(2, 12, BC_CLAMPED, ref2)
    exact = smallest_k_dense(a_mat, m_mat, 3)
    values, vectors, diagonal = exact.eigenvalues, exact.eigenvectors, a_mat.diagonal()
    kept = eigensolve.smoothed(a_mat, m_mat, diagonal, values, vectors)
    assert np.abs(kept - vectors).max() <= 1e-12 * np.abs(vectors).max()
    noise = 1e-9 * np.random.default_rng(5).standard_normal(vectors.shape)
    noisy = vectors * (1 + noise)
    before = compute_residuals(a_mat, m_mat, values, noisy)
    after = compute_residuals(a_mat, m_mat, values,
                              eigensolve.smoothed(a_mat, m_mat, diagonal, values, noisy))
    assert np.all(after <= before / 3)
