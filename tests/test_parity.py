"""The reflection-parity blocks of cli.solve_problem against the full pencil.

The full-pencil oracle assembles the whole unit box and calls the
shift-invert solver once, as solve_problem does in its one-block case.
"""

import itertools

import numpy as np
import pytest

from rectmorley import cli
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
    monkeypatch.setattr(cli, "SPLIT_MIN_ORDER", 0)
    result = cli.solve_problem(3, n, bc)
    assert [b["multiplicity"] for b in result.metadata["blocks"]] == [1, 3, 3, 1]
    assert result.converged
    dense = smallest_k_dense(*full_pencil(3, n, bc), 6)
    np.testing.assert_allclose(result.eigenvalues, dense.eigenvalues, rtol=1e-9, atol=0)


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
