import numpy as np
import pytest
import scipy.linalg as dla
from scipy import sparse

from rectmorley.assembly import (BC_CLAMPED, BC_SIMPLY_SUPPORTED, assemble,
                                 build_dof_map, dof_coordinates, nested_dissection)
from rectmorley import eigensolve
from rectmorley.eigensolve import (METHOD_DENSE, METHOD_SHIFT_INVERT, REL_GAP,
                                   compute_residuals, count_below,
                                   deterministic_start_vector, smallest_k_dense,
                                   solve_smallest, solved)
from rectmorley.mesh import build_mesh


def assembled(dim, n, bc, element):
    """The pencil of the full box, numbered for a factor."""
    mesh = build_mesh(dim, n)
    dofmap = nested_dissection(build_dof_map(mesh, bc))
    return assemble(mesh, dofmap, element)


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
# shift-invert path
# ---------------------------------------------------------------------------

def test_start_vector_is_deterministic_and_dense():
    v = deterministic_start_vector(10)
    assert v == pytest.approx(np.sin(np.arange(1, 11, dtype=float)))
    # No zero entries in any prefix that ARPACK might see.
    assert np.all(np.abs(v) > 1e-3)


@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_shift_invert_agrees_with_dense(bc, ref2):
    a_mat, m_mat = assembled(2, 8, bc, ref2)
    dense = smallest_k_dense(a_mat, m_mat, 6)
    si = solve_smallest(a_mat, m_mat, 6)
    assert si.method == METHOD_SHIFT_INVERT
    assert si.converged
    assert si.eigenvalues[:6] == pytest.approx(dense.eigenvalues, rel=1e-9)


def test_shift_invert_resolves_degenerate_pair(ref2):
    # The second and third eigenvalues coincide by symmetry; the cluster must
    # come back complete, not as a single copy.
    a_mat, m_mat = assembled(2, 8, BC_SIMPLY_SUPPORTED, ref2)
    result = solve_smallest(a_mat, m_mat, 3)
    lam2, lam3 = result.eigenvalues[1], result.eigenvalues[2]
    assert abs(lam2 - lam3) < 1e-8 * lam2
    gram = result.eigenvectors.T @ (m_mat @ result.eigenvectors)
    assert np.allclose(gram, np.eye(3), atol=1e-8)


def test_shift_invert_requires_k_below_order(ref2):
    # Shift-invert serves k + 1 < order only; past that the pencil goes to
    # the dense solver, and more pairs than the order are refused outright.
    a_mat, m_mat = assembled(2, 2, BC_CLAMPED, ref2)
    order = a_mat.shape[0]
    assert solve_smallest(a_mat, m_mat, order - 2).method == METHOD_SHIFT_INVERT
    assert solve_smallest(a_mat, m_mat, order - 1).method == METHOD_DENSE
    with pytest.raises(ValueError):
        solve_smallest(a_mat, m_mat, order + 1)


def test_shift_invert_reports_factorization_failure():
    # A singular stiffness matrix: SuperLU cannot factor it.
    a = sparse.csr_matrix(np.zeros((4, 4)))
    m = sparse.identity(4, format="csr")
    with pytest.raises(ValueError, match="factorization of the stiffness matrix failed"):
        solve_smallest(a, m, 1)


def test_repeat_solves_are_bitwise_identical(ref2):
    a_mat, m_mat = assembled(2, 6, BC_SIMPLY_SUPPORTED, ref2)
    first = solve_smallest(a_mat, m_mat, 4)
    second = solve_smallest(a_mat, m_mat, 4)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


# ---------------------------------------------------------------------------
# nested-dissection ordering and the slice certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim,n", [(2, 6), (3, 4)])
@pytest.mark.parametrize("bc", [BC_CLAMPED, BC_SIMPLY_SUPPORTED])
def test_nested_dissection_is_a_permutation_along_exact_separators(dim, n, bc, ref2,
                                                                    ref3):
    mesh = build_mesh(dim, n)
    dofmap = nested_dissection(build_dof_map(mesh, bc))
    a_csr = assemble(mesh, dofmap, ref2 if dim == 2 else ref3)[0]
    # Each DOF number has its own point.
    coords = dof_coordinates(dofmap)
    assert len(np.unique(coords, axis=0)) == dofmap.num_free
    # Every split is at an even doubled coordinate; at each such plane no
    # nonzero of A couples the DOFs on its two sides.
    for axis in range(dim):
        for plane in range(2, 2 * n, 2):
            lower = coords[:, axis] < plane
            upper = coords[:, axis] > plane
            assert a_csr[lower][:, upper].nnz == 0


def test_nested_dissection_reduces_fill(ref2):
    mesh = build_mesh(2, 16)
    dofmap = build_dof_map(mesh, BC_CLAMPED)
    # build_dof_map's own pencil, in entity order: free vertices, then free
    # facets, by id.
    natural = solve_smallest(*assemble(mesh, dofmap, ref2), 2)
    ordered = solve_smallest(*assemble(mesh, nested_dissection(dofmap), ref2), 2)
    assert ordered.metadata["factor_nnz"] < natural.metadata["factor_nnz"] / 2
    assert ordered.eigenvalues == pytest.approx(natural.eigenvalues, rel=1e-10)


# Sizes 4, 10 and 16 are ones where ARPACK alone returns one copy of the
# double eigenvalue at index 6 and silently takes the next one instead.
@pytest.mark.parametrize("dim,n,bc", [
    *[(2, n, BC_SIMPLY_SUPPORTED) for n in range(4, 17)],
    (3, 4, BC_SIMPLY_SUPPORTED), (3, 6, BC_SIMPLY_SUPPORTED),
    (3, 4, BC_CLAMPED), (3, 6, BC_CLAMPED),
])
def test_ordered_shift_invert_matches_dense(dim, n, bc, ref2, ref3):
    a_mat, m_mat = assembled(dim, n, bc, ref2 if dim == 2 else ref3)
    si = solve_smallest(a_mat, m_mat, 6)
    count = si.metadata["count_below_tau"]
    dense = smallest_k_dense(a_mat, m_mat, count)
    assert si.converged
    assert si.eigenvalues[:count] == pytest.approx(dense.eigenvalues, rel=1e-9)
    gram = si.eigenvectors.T @ (m_mat @ si.eigenvectors)
    assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)


def test_count_restores_skipped_copy(ref2, monkeypatch):
    # On this mesh ARPACK alone returns one copy of the double eigenvalue
    # (1,3)/(3,1) and the next eigenvalue in place of the second copy; the
    # count below that next eigenvalue says two pairs are missing, and the
    # k solve completes them.
    a_mat, m_mat = assembled(2, 4, BC_SIMPLY_SUPPORTED, ref2)
    runs = []
    eigsh = eigensolve.sla.eigsh

    def recording_eigsh(*args, **kwargs):
        out = eigsh(*args, **kwargs)
        runs.append(np.sort(out[0]))
        return out

    monkeypatch.setattr(eigensolve.sla, "eigsh", recording_eigsh)
    result = solve_smallest(a_mat, m_mat, 6)
    alone = runs[0]
    assert alone[5] > alone[4] * (1 + REL_GAP)
    assert result.converged
    assert result.metadata["count_below_tau"] == 8 and len(result.eigenvalues) == 8
    assert result.eigenvalues[5] == pytest.approx(result.eigenvalues[4], rel=1e-8)


def test_a_k_solve_returns_the_whole_cut_cluster(ref3):
    # k=6 cuts the 8539.68 triple of the 3D n=4 clamped pencil: the k solve
    # counts below its own lambda_6 (1 + REL_GAP) and returns all 7 values.
    a_mat, m_mat = assembled(3, 4, BC_CLAMPED, ref3)
    result = solve_smallest(a_mat, m_mat, 6)
    dense = smallest_k_dense(a_mat, m_mat, 8).eigenvalues
    assert result.converged
    assert np.isfinite(result.metadata["tau"])
    assert result.metadata["count_below_tau"] == 7 == len(result.eigenvalues)
    assert result.eigenvalues == pytest.approx(dense[:7], rel=1e-9)
    assert np.count_nonzero(np.abs(result.eigenvalues / 8539.678 - 1) < 1e-6) == 3


@pytest.mark.parametrize("dim,n,bc", [
    (2, 4, BC_SIMPLY_SUPPORTED), (2, 8, BC_SIMPLY_SUPPORTED),
    (3, 4, BC_CLAMPED), (3, 4, BC_SIMPLY_SUPPORTED),
])
def test_count_below_matches_the_dense_spectrum(dim, n, bc, ref2, ref3):
    a_mat, m_mat = assembled(dim, n, bc, ref2 if dim == 2 else ref3)
    spectrum = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
    gap = np.argmax(np.diff(spectrum[5:12])) + 5
    shifts = [spectrum[0] * (1 - REL_GAP), spectrum[0] * (1 + REL_GAP),
              spectrum[5] * (1 - REL_GAP), spectrum[5] * (1 + REL_GAP),
              0.5 * (spectrum[gap] + spectrum[gap + 1]), np.inf]
    for tau in shifts:
        assert count_below(a_mat, m_mat, tau) == np.count_nonzero(spectrum < tau)


def test_count_below_refuses_a_pivoted_factor():
    # A - tau M with a zero leading entry: SuperLU must leave the diagonal.
    a = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    m = sparse.identity(2, format="csr")
    with pytest.raises(ValueError, match="tau=1.0"):
        count_below(a, m, 1.0)


def test_infinite_thresholds_count_without_a_factor_and_nan_is_refused(ref2, monkeypatch):
    a_mat, m_mat = assembled(2, 4, BC_CLAMPED, ref2)

    def no_factor(*args):
        raise AssertionError("an infinite threshold needs no factor")

    monkeypatch.setattr(eigensolve, "_ShiftedFactor", no_factor)
    assert count_below(a_mat, m_mat, -np.inf) == 0
    assert count_below(a_mat, m_mat, np.inf) == a_mat.shape[0]
    below = solve_smallest(a_mat, m_mat, tau=-np.inf)
    assert below.converged and below.eigenvalues.size == 0
    assert below.metadata["count_below_tau"] == 0
    for call in (lambda: count_below(a_mat, m_mat, np.nan),
                 lambda: solve_smallest(a_mat, m_mat, tau=np.nan)):
        with pytest.raises(ValueError, match="tau must be a number.*nan"):
            call()


def test_solve_below_owes_nothing_without_a_factor(ref2, monkeypatch):
    a_mat, m_mat = assembled(2, 6, BC_CLAMPED, ref2)
    shifts = []

    class RecordedFactor(eigensolve._ShiftedFactor):
        def __init__(self, a_mat, m_mat, shift):
            shifts.append(shift)
            super().__init__(a_mat, m_mat, shift)

    monkeypatch.setattr(eigensolve, "_ShiftedFactor", RecordedFactor)
    result = solve_smallest(a_mat, m_mat, tau=1.0)
    assert result.converged and result.eigenvalues.size == 0
    assert result.metadata["count_below_tau"] == 0
    # The count at tau is the only factor: no shift-invert factor of A.
    assert shifts == [1.0]
    with pytest.raises(ValueError, match="k or the threshold tau"):
        solve_smallest(a_mat, m_mat, 2, tau=1.0)


def test_a_given_count_replaces_the_count_factor(ref2, monkeypatch):
    # solve_smallest(count=) counts with the callable, at finite thresholds
    # only, and builds no factor at a nonzero shift; a count that raises
    # ValueError leaves the pairs found uncertified.
    a_mat, m_mat = assembled(2, 6, BC_CLAMPED, ref2)
    shifts, asked = [], []

    class RecordedFactor(eigensolve._ShiftedFactor):
        def __init__(self, a_mat, m_mat, shift):
            shifts.append(shift)
            super().__init__(a_mat, m_mat, shift)

    def oracle(tau):
        asked.append(tau)
        return int(np.count_nonzero(smallest_k_dense(a_mat, m_mat, 8).eigenvalues < tau))

    def refused(tau):
        raise ValueError("cannot count")

    monkeypatch.setattr(eigensolve, "_ShiftedFactor", RecordedFactor)
    counted = solve_smallest(a_mat, m_mat, 2, count=oracle)
    assert set(shifts) == {0.0} and asked == [counted.metadata["tau"]]
    assert counted.converged and counted.metadata["count_below_tau"] == 3
    default = solve_smallest(a_mat, m_mat, 2)
    assert np.array_equal(default.eigenvalues, counted.eigenvalues)
    assert default.metadata["tau"] in shifts
    assert solve_smallest(a_mat, m_mat, tau=np.inf, count=refused).metadata[
        "count_below_tau"] == a_mat.shape[0]
    uncounted = solve_smallest(a_mat, m_mat, 2, count=refused)
    assert uncounted.metadata["count_below_tau"] is None and not uncounted.converged
    assert uncounted.eigenvalues == pytest.approx(counted.eigenvalues[:2], rel=1e-12)


def test_shift_between_eigenvalues_is_rejected(ref2):
    a_mat, m_mat = assembled(2, 6, BC_CLAMPED, ref2)
    lam = smallest_k_dense(a_mat, m_mat, 2).eigenvalues
    # One factor type gives both verdicts: one negative pivot between
    # lambda_1 and lambda_2, so the count there is 1; none at the shift 0
    # below lambda_1, so the shift-invert factor is taken.
    assert count_below(a_mat, m_mat, 0.5 * (lam[0] + lam[1])) == 1
    assert count_below(a_mat, m_mat, 0.0) == 0
    result = solve_smallest(a_mat, m_mat, 2)
    assert result.method == METHOD_SHIFT_INVERT and result.converged
    # k=2 cuts the clamped square's double second eigenvalue: both copies.
    assert len(result.eigenvalues) == 3
    assert result.eigenvalues[:2] == pytest.approx(lam, rel=1e-9)
    # A stiffness matrix with an eigenvalue below the shift 0 is refused.
    indefinite = sparse.csr_matrix(np.diag([-1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="not positive definite"):
        solve_smallest(indefinite, sparse.identity(4, format="csr"), 1)


def test_ordered_repeat_solves_are_bitwise_identical(ref3):
    a_mat, m_mat = assembled(3, 4, BC_SIMPLY_SUPPORTED, ref3)
    first = solve_smallest(a_mat, m_mat, 6)
    second = solve_smallest(a_mat, m_mat, 6)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)
    assert first.metadata == second.metadata


def test_solver_metadata_reports_factor_and_work(ref2):
    a_mat, m_mat = assembled(2, 8, BC_CLAMPED, ref2)
    result = solve_smallest(a_mat, m_mat, 3)
    meta = result.metadata
    assert meta["factor_nnz"] >= sparse.tril(a_mat).nnz
    # ARPACK, then one block solve of k vectors.
    assert meta["opinv_applications"] > 3


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
# routing
# ---------------------------------------------------------------------------

def test_solve_smallest_routes_to_shift_invert(ref2):
    a_mat, m_mat = assembled(2, 4, BC_CLAMPED, ref2)
    result = solve_smallest(a_mat, m_mat, 3, method="auto")
    assert result.method == METHOD_SHIFT_INVERT


def test_solve_smallest_routes_tiny_pencils_to_dense(ref2):
    # Shift-invert needs k + 1 < order; only then is dense the auto route.
    a = sparse.csr_matrix(np.diag([1.0, 2.0, 3.0]))
    m = sparse.identity(3, format="csr")
    assert solve_smallest(a, m, 1, method="auto").method == METHOD_SHIFT_INVERT
    result = solve_smallest(a, m, 2, method="auto")
    assert result.method == METHOD_DENSE
    assert result.eigenvalues == pytest.approx([1.0, 2.0])
    # Up to every pair of an assembled pencil, which shift-invert cannot give.
    a_mat, m_mat = assembled(2, 2, BC_CLAMPED, ref2)
    order = a_mat.shape[0]
    for k in (order - 1, order):
        result = solve_smallest(a_mat, m_mat, k)
        assert result.method == METHOD_DENSE and result.converged
        assert len(result.eigenvalues) == k


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


def test_solve_smallest_honors_explicit_method(ref2):
    # 'dense' forces the dense route where 'auto' takes shift-invert, which
    # is the auto route and not a method of its own.
    a_mat, m_mat = assembled(2, 6, BC_CLAMPED, ref2)
    result = solve_smallest(a_mat, m_mat, 3, method="auto")
    assert result.method == METHOD_SHIFT_INVERT
    dense = solve_smallest(a_mat, m_mat, 3, method=METHOD_DENSE)
    assert dense.method == METHOD_DENSE
    assert result.eigenvalues == pytest.approx(dense.eigenvalues, rel=1e-9)
    with pytest.raises(ValueError, match="method"):
        solve_smallest(a_mat, m_mat, 3, method=METHOD_SHIFT_INVERT)


def test_solve_smallest_rejects_unknown_method(ref2):
    a_mat, m_mat = assembled(2, 2, BC_CLAMPED, ref2)
    with pytest.raises(ValueError, match="method"):
        solve_smallest(a_mat, m_mat, 1, method="subspace")



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
