"""The reflection-parity blocks of cli.solve_problem against the full pencil.

The full-pencil oracle assembles the whole unit box and calls the
shift-invert solver once, for k pairs and without the slice certificate.
"""

import itertools

import numpy as np
import pytest

from rectmorley import cli, eigensolve
from rectmorley.assembly import (PARITY_EVEN, PARITY_ODD, assemble,
                                 build_dof_map)
from rectmorley.eigensolve import smallest_k_dense, smallest_k_shift_invert
from rectmorley.element import build_reference_element
from rectmorley.mesh import build_mesh

SIGMA = {"clamped": 0.0, "simply-supported": -1.0}


def full_pencil(dim, n, bc):
    mesh = build_mesh(dim, n)
    return assemble(mesh, build_dof_map(mesh, bc), build_reference_element(dim))


def block_eigenvalues(dim, n, bc, parity, k=6):
    """The k smallest eigenvalues of the half-box block of one parity
    ('e' or 'o' per axis), solved directly."""
    mesh = build_mesh(dim, n // 2, domain=((0.0,) * dim, (0.5,) * dim))
    faces = [face for p in parity
             for face in (bc, PARITY_ODD if p == "o" else PARITY_EVEN)]
    a_mat, m_mat = assemble(mesh, build_dof_map(mesh, bc, faces),
                            build_reference_element(dim))
    return smallest_k_shift_invert(a_mat, m_mat, k, sigma=SIGMA[bc]).eigenvalues


# The two routes round differently, so they can agree only to the float64
# accuracy of a Rayleigh quotient of the pencil, which falls like 1/h^4.  At
# 2D n=64 that is about 1e-11: the float64 and extended-precision Rayleigh
# quotients of one simply supported eigenvector differ by 1.6e-11 there, and
# the routes' lambda_1 by 1.0e-11.
@pytest.mark.parametrize("dim,n,rtol", [(2, 32, 1e-11), (2, 64, 5e-11),
                                        (3, 8, 1e-11), (3, 12, 1e-11)])
@pytest.mark.parametrize("bc", sorted(SIGMA))
def test_blocks_match_the_full_pencil(dim, n, rtol, bc):
    result = cli.solve_problem(dim, n, bc)
    assert len(result.metadata["blocks"]) == dim + 1
    assert result.converged
    a_mat, m_mat = full_pencil(dim, n, bc)
    assert result.metadata["order"] == a_mat.shape[0]
    oracle = smallest_k_shift_invert(a_mat, m_mat, 6, sigma=SIGMA[bc])
    np.testing.assert_allclose(result.eigenvalues, oracle.eigenvalues, rtol=rtol, atol=0)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("bc", sorted(SIGMA))
def test_split_matches_the_dense_oracle(n, bc, monkeypatch):
    # Split every even n, however small, and compare with a solver that
    # uses no start vector.
    monkeypatch.setitem(cli.SPLIT_MIN_ORDER, 3, 0)
    result = cli.solve_problem(3, n, bc)
    assert [b["multiplicity"] for b in result.metadata["blocks"]] == [1, 3, 3, 1]
    assert result.converged
    dense = smallest_k_dense(*full_pencil(3, n, bc), 6)
    np.testing.assert_allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=0)


@pytest.mark.parametrize("dim,n,blocks", [(2, 16, 1), (3, 4, 1), (3, 6, 4)])
@pytest.mark.parametrize("bc", sorted(SIGMA))
def test_split_threshold_is_per_dimension(dim, n, blocks, bc):
    # 3D n=6 (665/881 free DOFs) is split, 2D n=16 (705/769) is not.
    assert len(cli.solve_problem(dim, n, bc).metadata["blocks"]) == blocks


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
@pytest.mark.parametrize("bc", sorted(SIGMA))
def test_blocks_with_as_many_odd_axes_are_isospectral(dim, n, bc):
    # Why solve_problem solves one block per number of odd axes.
    spectra = {"".join(p): block_eigenvalues(dim, n, bc, p)
               for p in itertools.product("eo", repeat=dim)}
    for parity, values in spectra.items():
        odd = parity.count("o")
        representative = "o" * odd + "e" * (dim - odd)
        np.testing.assert_allclose(values, spectra[representative], rtol=1e-12, atol=0)


@pytest.mark.parametrize("k", [6, 7, 8])
def test_certificate_closes_the_3d_clamped_triple(k):
    # From the sin start vector ARPACK returns 8539.68 only twice at k=7 and
    # at k=8; the count below tau finds the third copy.  At k=6 the triple
    # is cut, and k_closed counts its third copy.
    result = cli.solve_problem(3, 4, "clamped", k=k)
    assert result.converged
    dense = smallest_k_dense(*full_pencil(3, 4, "clamped"), 12).eigenvalues
    assert np.count_nonzero(np.abs(dense / 8539.678 - 1) < 1e-6) == 3
    np.testing.assert_allclose(result.eigenvalues, dense[:k], rtol=1e-9, atol=0)
    assert result.metadata["k_closed"] == np.count_nonzero(dense < result.metadata["tau"])
    assert result.metadata["k_closed"] == {6: 7, 7: 7, 8: 8}[k]


@pytest.mark.parametrize("bc", sorted(SIGMA))
def test_3d_n16_blocks_are_solved_for_what_they_owe(bc, monkeypatch):
    arpack_runs, factored = [], []
    eigsh = eigensolve.sla.eigsh

    def counting_eigsh(*args, **kwargs):
        arpack_runs.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    class RecordedFactor(eigensolve._ShiftedFactor):
        def __init__(self, a_csr, m_csr, sigma):
            factored.append(a_csr.shape[0])
            super().__init__(a_csr, m_csr, sigma)

    monkeypatch.setattr(eigensolve.sla, "eigsh", counting_eigsh)
    monkeypatch.setattr(eigensolve, "_ShiftedFactor", RecordedFactor)
    result = cli.solve_problem(3, 16, bc)
    meta = result.metadata
    assert result.converged
    # k=6 cuts the 13468.312 (clamped) or 81 pi^4 (simply supported) triple.
    assert meta["k_closed"] == 7
    # eee for k=6, then oee and ooe for their counts, and no completion pass;
    # ooo owes nothing and gets neither an SPD factor nor an ARPACK run.
    counts = [b["count_below_tau"] for b in meta["blocks"]]
    assert counts == [1, 4, 1, 0]
    assert arpack_runs == [6, 4, 1]
    assert factored == [b["order"] for b in meta["blocks"][:3]]
    assert meta["opinv_applications"] <= 130
