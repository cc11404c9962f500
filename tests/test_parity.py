"""The reflection-parity blocks of cli.solve_problem against the full pencil.

The full-pencil oracle assembles the whole unit box and solves it with the
sparse_oracle fixture (ARPACK in shift-invert mode) or LAPACK's dense
solver.
The block oracle numbers and assembles one half-box block on its own.
"""

import itertools

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse.linalg as sla

from rectmorley import capacitance, cli, eigensolve
from rectmorley.assembly import PARITY_EVEN, PARITY_ODD, assemble, build_dof_map
from rectmorley.eigensolve import smallest_k_dense, solve_smallest
from rectmorley.element import build_reference_element
from rectmorley.mesh import build_mesh

BCS = ("clamped", "simply-supported")


def full_pencil(dim, n, bc):
    """The pencil of the full box, in id order."""
    mesh = build_mesh(dim, n)
    return assemble(mesh, build_dof_map(mesh, bc), build_reference_element(dim))


def half_box(dim, n):
    return build_mesh(dim, n // 2, domain=((0.0,) * dim, (0.5,) * dim))


def parity_faces(bc, parity):
    return [face for p in parity
            for face in (bc, PARITY_ODD if p == "o" else PARITY_EVEN)]


def symbol_count(dim, n, a_mat):
    """The full box's clamped count from the symbol (Capacitance.count),
    which builds no factor."""
    from rectmorley import symbol

    spectrum = symbol.block_spectra(dim, n, [None])[None]
    return capacitance.Capacitance(dim, n, None, spectrum, a_mat.shape[0]).count


def block_pencil(dim, n, bc, parity):
    """The pencil of the half-box block of one parity ('e' or 'o' per
    axis), numbered and assembled on its own."""
    mesh = half_box(dim, n)
    dofmap = build_dof_map(mesh, bc, parity_faces(bc, parity))
    return assemble(mesh, dofmap, build_reference_element(dim))


# The two routes round differently, so they can agree only to the float64
# accuracy of a Rayleigh quotient of the pencil, which falls like 1/h^4.  At
# 2D n=64 that is about 1e-11: the float64 and extended-precision Rayleigh
# quotients of one simply supported eigenvector differ by 1.6e-11 there, and
# the routes' lambda_1 by 1.0e-11.
@pytest.mark.parametrize("dim,n,rtol", [(2, 32, 1e-11), (2, 64, 5e-11),
                                        (3, 8, 1e-11), (3, 12, 1e-11)])
@pytest.mark.parametrize("bc", BCS)
def test_blocks_match_the_full_pencil(dim, n, rtol, bc, sparse_oracle):
    result = cli.solve_problem(dim, n, bc)
    assert len(result.metadata["blocks"]) == dim + 1
    assert result.converged
    a_mat, m_mat = full_pencil(dim, n, bc)
    assert result.metadata["order"] == a_mat.shape[0]
    np.testing.assert_allclose(result.eigenvalues, sparse_oracle(a_mat, m_mat), rtol=rtol,
                               atol=0)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("bc", BCS)
def test_split_matches_the_dense_oracle(n, bc, monkeypatch):
    # Split every even n, however small, and compare with LAPACK's dense
    # solver on the full pencil.
    monkeypatch.setitem(cli.SPLIT_MIN_ORDER, 3, 0)
    result = cli.solve_problem(3, n, bc)
    # Largest classes first: oee, ooe, eee, ooo.
    assert [b["multiplicity"] for b in result.metadata["blocks"]] == [3, 3, 1, 1]
    assert result.converged
    dense = smallest_k_dense(*full_pencil(3, n, bc), 6)
    np.testing.assert_allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=0)


@pytest.mark.parametrize("dim,n,blocks", [(2, 16, 1), (2, 20, 3), (3, 4, 1), (3, 6, 4)])
@pytest.mark.parametrize("bc", BCS)
def test_split_threshold_is_per_dimension(dim, n, blocks, bc):
    # 3D n=6 (665/881 free DOFs) and 2D n=20 (1121/1201) are split, 2D n=16
    # (705/769) and 3D n=4 (171/267) are not.
    assert len(cli.solve_problem(dim, n, bc).metadata["blocks"]) == blocks


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
@pytest.mark.parametrize("bc", BCS)
def test_blocks_with_as_many_odd_axes_are_isospectral(dim, n, bc, sparse_oracle):
    # Why solve_problem solves one block per number of odd axes.
    spectra = {"".join(p): sparse_oracle(*block_pencil(dim, n, bc, p))
               for p in itertools.product("eo", repeat=dim)}
    for parity, values in spectra.items():
        odd = parity.count("o")
        representative = "o" * odd + "e" * (dim - odd)
        np.testing.assert_allclose(values, spectra[representative], rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_certificate_closes_the_3d_clamped_triple(k):
    # ARPACK from a sin start vector returned 8539.68 only twice at k=7 and
    # at k=8.  At k=6 the triple is cut, and k_closed counts its third copy.
    result = cli.solve_problem(3, 4, "clamped", k=k)
    assert result.converged
    dense = smallest_k_dense(*full_pencil(3, 4, "clamped"), 12).eigenvalues
    assert np.count_nonzero(np.abs(dense / 8539.678 - 1) < 1e-6) == 3
    np.testing.assert_allclose(result.eigenvalues, dense[:k], rtol=1e-9, atol=0)
    assert result.metadata["k_closed"] == np.count_nonzero(dense < result.metadata["tau"])
    assert result.metadata["k_closed"] == {6: 7, 7: 7, 8: 8}[k]


@pytest.mark.parametrize("bc", BCS)
def test_3d_n16_blocks_are_solved_for_what_they_owe(bc, monkeypatch, refuse_factors):
    walked = []
    pairs = capacitance.Capacitance.pairs

    def counting_pairs(*args, **kwargs):
        values, coefficients = pairs(*args, **kwargs)
        walked.append(len(values))
        return values, coefficients

    monkeypatch.setattr(capacitance.Capacitance, "pairs", counting_pairs)
    result = cli.solve_problem(3, 16, bc)
    meta = result.metadata
    assert result.converged
    # k=6 cuts the 13468.312 (clamped) or 81 pi^4 (simply supported) triple.
    assert meta["k_closed"] == 7
    # Clamped: oee walks to ceil(6 / 3) = 2 pairs, certified at its own
    # second eigenvalue, then ooe and eee to their counts below the running
    # tau; ooo owes nothing and its walk finds no pair.  Simply supported:
    # every block takes its pairs below the symbol's tau.  Neither builds a
    # factor or runs ARPACK.
    assert [b["parity"] for b in meta["blocks"]] == ["oee", "ooe", "eee", "ooo"]
    counts = [b["count_below_tau"] for b in meta["blocks"]]
    assert counts == {"clamped": [2, 1, 1, 0], "simply-supported": [1, 1, 1, 0]}[bc]
    assert walked == (counts if bc == "clamped" else [])


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 6)])
@pytest.mark.parametrize("bc", BCS)
def test_every_parity_block_solves_its_own_pencil(dim, n, bc, monkeypatch):
    # Each parity block is the pencil of its own numbering of the half box,
    # with its parity's conditions on the mid-plane faces, in id order.
    mesh, element = half_box(dim, n), build_reference_element(dim)
    pencils = {}
    for parity in map("".join, itertools.product("eo", repeat=dim)):
        pencils[parity] = assemble(mesh, build_dof_map(mesh, bc, parity_faces(bc, parity)),
                                   element)
    # solve_problem solves exactly these pencils, representatives first: on
    # the dense route with solve_smallest, on the auto route by checking the
    # symbol's pairs in each block (eigensolve.solved) with operators that
    # apply the block's pencil cell by cell, summed in another order.
    monkeypatch.setitem(cli.SPLIT_MIN_ORDER, dim, 0)
    for solver in ("auto", "dense") if bc == "clamped" else ("auto",):
        solved = []
        assembled = solver == "dense"
        name = "solve_smallest" if assembled else "solved"
        solve = getattr(eigensolve, name)

        def recording(a_mat, m_mat, *args, **kwargs):
            solved.append((a_mat, m_mat))
            return solve(a_mat, m_mat, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(eigensolve, name, recording)
            result = cli.solve_problem(dim, n, bc, solver=solver)
        order = [b["parity"] for b in result.metadata["blocks"]]
        assert order == {2: ["oe", "ee", "oo"], 3: ["oee", "ooe", "eee", "ooo"]}[dim]
        # One solve per representative: no block is solved twice.
        assert len(solved) == len(order)
        for parity, pencil in zip(order, solved):
            for mat, expected in zip(pencil, pencils[parity]):
                if assembled:
                    assert mat.has_canonical_format
                    assert (mat != expected).nnz == 0
                else:
                    applied, expected = mat @ np.eye(mat.shape[0]), expected.toarray()
                    assert np.abs(applied - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("dim,n,bc", [(2, 64, "simply-supported"), (2, 15, "simply-supported"),
                                      (3, 8, "simply-supported"), (3, 16, "simply-supported"),
                                      (2, 64, "clamped"), (3, 8, "clamped")])
def test_only_clamped_solves_assemble(dim, n, bc, monkeypatch):
    # Every block numbers its own DOFs once.  On the auto route it applies
    # the element matrices cell by cell and assembles nothing; only a
    # clamped block on the dense route assembles its own map, once.
    from rectmorley import assembly

    calls = []

    def recorded(name):
        function = getattr(assembly, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return call

    for name in ("assemble", "build_dof_map"):
        monkeypatch.setattr(assembly, name, recorded(name))
    blocks = cli.solve_problem(dim, n, bc).metadata["blocks"]
    assert calls == ["build_dof_map"] * len(blocks)
    assert len(blocks) == (1 if n == 15 else dim + 1)
    if bc == "clamped":
        calls.clear()
        result = cli.solve_problem(dim, 8, bc, solver="dense")
        assert result.converged
        assert calls == ["build_dof_map", "assemble"] * len(result.metadata["blocks"])


@pytest.mark.parametrize("dim,n,bc,k_closed", [(3, 4, "clamped", 7),
                                               (2, 4, "simply-supported", 6)])
def test_one_block_solve_builds_at_most_two_factors(dim, n, bc, k_closed, monkeypatch,
                                                    refuse_factors):
    # 3D n=4 clamped: k=6 cuts the 8539.68 triple.  2D simply supported
    # n=4, where ARPACK would skip a copy of the (1,3)/(3,1) pair, takes
    # both from the symbol.  solve_problem takes every pair from the symbol
    # and builds no factor, and neither does solve_smallest on the clamped
    # pencil, whose whole spectrum counts the copy that k cuts off.
    monkeypatch.setitem(cli.SPLIT_MIN_ORDER, dim, 10 ** 9)
    result = cli.solve_problem(dim, n, bc)
    assert result.converged and result.method == "symbol"
    assert len(result.metadata["blocks"]) == 1
    assert result.metadata["k_closed"] == k_closed
    if bc == "clamped":
        library = solve_smallest(*full_pencil(dim, n, bc), 6)
        assert library.converged
        assert library.metadata["count_below_tau"] == k_closed == len(library.eigenvalues)


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 32), (2, 64), (3, 4), (3, 8), (3, 16)])
@pytest.mark.parametrize("bc", BCS)
def test_only_clamped_blocks_build_count_factors(dim, n, bc, monkeypatch, refuse_factors):
    # Every block is counted once below a tau, from the symbol: a clamped
    # block by its capacitance matrix, a simply supported one by its modes.
    # No block builds a count factor, nor any other: every block takes its
    # pairs from the symbol.
    counted = []
    count = capacitance.Capacitance.count

    def recorded_count(self, tau):
        counted.append(tau)
        return count(self, tau)

    monkeypatch.setattr(capacitance.Capacitance, "count", recorded_count)
    result = cli.solve_problem(dim, n, bc)
    assert result.converged
    blocks = result.metadata["blocks"]
    assert counted == ([b["tau"] for b in blocks] if bc == "clamped" else [])


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 5), (2, 32), (2, 64), (3, 3), (3, 4), (3, 16)])
def test_simply_supported_solves_build_no_factor_and_run_no_eigensolver(dim, n, monkeypatch):
    # Every pair comes from the symbol: no factor, no solve_smallest call
    # and no ARPACK run, in one block (2D n=4, 5, 3D n=3, 4) or split.
    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((sla, "splu"), (eigensolve, "solve_smallest"),
                         (eigensolve, "smallest_k_dense"), (sla, "eigsh")):
        monkeypatch.setattr(module, name, refused(name))
    result = cli.solve_problem(dim, n, "simply-supported")
    assert calls == []
    assert result.converged and result.method == "symbol"
    assert len(result.metadata["blocks"]) == (1 if n in (3, 4, 5) else dim + 1)
    assert max(result.residuals) <= eigensolve.RESIDUAL_TOL


@pytest.mark.parametrize("dim,n", [(2, 32), (2, 64), (3, 8), (3, 16)])
def test_simply_supported_blocks_are_sliced_at_the_final_tau(dim, n):
    # The symbol's merged spectra give the final tau before any block is
    # solved, so no block is solved for pairs above it.
    meta = cli.solve_problem(dim, n, "simply-supported").metadata
    assert len(meta["blocks"]) == dim + 1
    assert all(b["tau"] == meta["tau"] for b in meta["blocks"])


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 4), (3, 16)])
@pytest.mark.parametrize("bc", BCS)
def test_at_most_one_factor_is_alive(dim, n, bc, refuse_factors):
    # No factor is alive at any time: solve_problem builds none, and neither
    # does the symbol's count, which agrees with the whole dense spectrum.
    assert cli.solve_problem(dim, n, bc).converged
    if bc == "clamped":
        a_mat, m_mat = full_pencil(dim, 4, bc)
        spectrum = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
        for k in (6, 8):
            tau = eigensolve.tau_after(spectrum, k)
            assert symbol_count(dim, 4, a_mat)(tau) == np.count_nonzero(spectrum < tau)


def test_a_block_the_symbol_cannot_number_gets_no_count(monkeypatch, refuse_factors):
    # A class whose eigenvalue count is not its block's order: the block's
    # count is untrusted, and no factor or eigensolver replaces it.
    from rectmorley import symbol

    spectra = symbol.block_spectra

    def one_short(dim, n, parities):
        out = spectra(dim, n, parities)
        out["ee"] = tuple(part[1:] for part in out["ee"])
        return out

    monkeypatch.setattr(symbol, "block_spectra", one_short)
    result = cli.solve_problem(2, 32, "simply-supported")
    blocks = {b["parity"]: b for b in result.metadata["blocks"]}
    assert blocks["ee"]["count_below_tau"] is None and not blocks["ee"]["converged"]
    assert blocks["oe"]["converged"] and blocks["oo"]["converged"]
    assert not result.converged


@pytest.mark.parametrize("n", [4, 15, 16, 32, 64])
def test_2d_clamped_solves_assemble_factor_and_run_no_eigensolver(n, monkeypatch):
    # Every 2D clamped pair comes from the symbol: no assembly, no factor,
    # no eigsh and no solve_smallest call, in one block (n=4, 15, 16) or
    # split (n=32, 64).
    from rectmorley import assembly

    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((assembly, "assemble"), (sla, "splu"), (eigensolve, "solve_smallest"),
                         (eigensolve, "smallest_k_dense"), (sla, "eigsh")):
        monkeypatch.setattr(module, name, refused(name))
    result = cli.solve_problem(2, n, "clamped")
    assert calls == []
    assert result.converged and result.method == "symbol"
    assert len(result.metadata["blocks"]) == (3 if n in (32, 64) else 1)


@pytest.mark.parametrize("dim,n,solver,unused", [(2, 8, "dense", "smallest_k_dense"),
                                                  (2, 32, "dense", "smallest_k_dense"),
                                                  (3, 8, "auto", "solve_smallest")])
def test_dense_and_3d_clamped_solves_still_assemble(dim, n, solver, unused, monkeypatch):
    # Only --solver dense assembles: it solves every clamped block once with
    # solve_smallest on the pencil of its own DOF map, assembled once, and
    # takes the block's whole spectrum, not smallest_k_dense's subset.  A 3D
    # clamped solve on the auto route takes its pairs from the symbol: no
    # assembly, no solve.
    from rectmorley import assembly

    calls = []

    def recorded(owner, name):
        function = getattr(owner, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    for owner, name in ((eigensolve, "solve_smallest"), (eigensolve, "smallest_k_dense"),
                        (assembly, "assemble")):
        recorded(owner, name)
    result = cli.solve_problem(dim, n, "clamped", solver=solver)
    assert result.converged
    assert unused not in calls
    if solver == "dense":
        assert calls == ["assemble", "solve_smallest"] * len(result.metadata["blocks"])
    else:
        assert calls == []
        assert result.method == "symbol"
