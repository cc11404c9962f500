"""The exact simply supported spectrum of symbol.py against the assembled pencils."""

import itertools

import numpy as np
import pytest
import scipy.linalg as dla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectmorley import cli, symbol
from rectmorley.assembly import (BC_SIMPLY_SUPPORTED, PARITY_EVEN, PARITY_ODD, assemble,
                                 build_dof_map, free_dof_count)
from rectmorley.eigensolve import REL_GAP, count_below
from rectmorley.element import build_reference_element
from rectmorley.mesh import build_mesh


def parities(dim):
    return ["".join(letters) for letters in itertools.product("eo", repeat=dim)]


def block_mesh_and_faces(dim, n, parity):
    """The full box for parity None, else the half box with the parity's
    mid-plane conditions ('o': odd, 'e': even on the upper face of axis a)."""
    if parity is None:
        return build_mesh(dim, n), None
    mesh = build_mesh(dim, n // 2, domain=((0.0,) * dim, (0.5,) * dim))
    return mesh, [face for letter in parity for face in
                  (BC_SIMPLY_SUPPORTED, PARITY_ODD if letter == "o" else PARITY_EVEN)]


def block_pencil(dim, n, parity):
    mesh, faces = block_mesh_and_faces(dim, n, parity)
    return assemble(mesh, build_dof_map(mesh, BC_SIMPLY_SUPPORTED, faces),
                    build_reference_element(dim))


@pytest.mark.parametrize("dim,n", [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)])
def test_spectrum_is_the_dense_spectrum_of_the_full_pencil(dim, n):
    a_mat, m_mat = block_pencil(dim, n, None)
    dense = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
    values = symbol.block_spectra(dim, n, [None])[None]
    assert len(values) == len(dense)
    assert np.max(np.abs(values - dense) / dense) <= 1e-12


@pytest.mark.parametrize("dim,top", [(2, 24), (3, 10)])
def test_each_parity_class_numbers_its_block(dim, top):
    # One eigenvalue per existing (wave vector, family) pair: as many as the
    # block has free DOFs, and the full box's for the union of the classes.
    for n in range(1, top + 1):
        spectra = symbol.block_spectra(dim, n, parities(dim) + [None])
        assert len(spectra[None]) == free_dof_count(build_mesh(dim, n), BC_SIMPLY_SUPPORTED)
        assert sum(len(spectra[parity]) for parity in parities(dim)) == len(spectra[None])
        if n % 2 == 0:
            for parity in parities(dim):
                mesh, faces = block_mesh_and_faces(dim, n, parity)
                assert len(spectra[parity]) == free_dof_count(mesh, BC_SIMPLY_SUPPORTED, faces)


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 32), (2, 64), (3, 8), (3, 12), (3, 16)])
def test_block_counts_equal_the_inertia_counts(dim, n):
    # At tau = lambda_i (1 + REL_GAP), as the solver slices the blocks.
    spectra = symbol.block_spectra(dim, n, parities(dim))
    for parity, values in spectra.items():
        a_mat, m_mat = block_pencil(dim, n, parity)
        count = symbol.counter(values, a_mat.shape[0])
        for index in (0, 1, 5, 12):
            tau = values[index] * (1 + REL_GAP)
            assert count(tau) == count_below(a_mat, m_mat, tau)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), fraction=st.floats(0.05, 0.95))
def test_counts_between_spectrum_points(data, dim, fraction):
    n = data.draw(st.integers(1, 8 if dim == 2 else 4), label="n")
    parity = data.draw(st.sampled_from([None] + (parities(dim) if n % 2 == 0 else [])),
                       label="parity")
    values = symbol.block_spectra(dim, n, [parity])[parity]
    a_mat, m_mat = block_pencil(dim, n, parity)
    index = data.draw(st.integers(-1, len(values) - 1), label="index")
    below = 0.0 if index < 0 else values[index]
    above = values[index + 1] if index + 1 < len(values) else 2.0 * values[-1]
    assume(above > below * (1 + 1e-6))
    tau = below + fraction * (above - below)
    assert symbol.counter(values, a_mat.shape[0])(tau) == count_below(a_mat, m_mat, tau) \
        == index + 1


def test_counter_refuses_a_block_of_another_order():
    values = symbol.block_spectra(2, 4, [None])[None]
    assert symbol.counter(values, len(values))(np.inf) == len(values)
    with pytest.raises(ValueError, match="order 48"):
        symbol.counter(values, len(values) - 1)(1e4)


def test_copies_agree_from_the_symbol_alone_at_2d_n1024():
    # p = (1, 2) and (2, 1) are mirror images; their pencils are computed
    # apart, in the opposite order of the facet families.
    first, second = symbol.wave_spectra(2, 1024, [(1, 2), (2, 1)])
    assert np.all(first > 0)
    assert np.max(np.abs(first - second) / first) <= 1e-10


def test_first_eigenvalue_converges_from_below_at_second_order():
    # (4 pi^4 - lambda_h) / (4 pi^4) n^2 tends to a positive constant, near
    # 2.056: the stable symbol keeps it at sizes where the plain sum's
    # cancellation (about eps (n / pi)^4 relative) would swamp the error.
    exact = 4.0 * np.pi ** 4
    scaled = [(exact - symbol.wave_spectra(2, n, [(1, 1)])[0, 0]) / exact * n ** 2
              for n in (256, 4096, 65536)]
    assert all(2.05 < value < 2.06 for value in scaled)
    assert abs(scaled[2] - scaled[1]) < 1e-4


# The sparse route's own rounding, about eps times the pencil's condition
# number, sets these bounds: measured 9.5e-12 (2D n=64), 7.6e-11 (2D
# n=128) and 9.3e-14 (3D n=16), where the dense oracle is good to only
# about 1e-9 (smallest_k_dense).
@pytest.mark.parametrize("dim,n,rtol", [(2, 64, 2e-11), (2, 128, 1.5e-10), (3, 16, 2e-13)])
def test_solve_matches_the_symbol_past_the_dense_oracle(dim, n, rtol):
    result = cli.solve_problem(dim, n, BC_SIMPLY_SUPPORTED)
    assert result.converged
    exact = symbol.block_spectra(dim, n, [None])[None][:len(result.eigenvalues)]
    assert np.max(np.abs(result.eigenvalues - exact) / exact) <= rtol
