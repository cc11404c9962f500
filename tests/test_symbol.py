"""The exact simply supported spectrum of symbol.py against the assembled pencils."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg as dla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rectmorley import capacitance, cli, symbol
from rectmorley.assembly import (BC_CLAMPED, BC_SIMPLY_SUPPORTED, FACE_FREE, PARITY_EVEN,
                                 PARITY_ODD, assemble, build_dof_map, dof_coordinates,
                                 free_dof_count, nested_dissection, restricted_dofs)
from rectmorley.eigensolve import REL_GAP, compute_residuals, count_below, rayleigh_ritz
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


def block_pencil(dim, n, parity, with_coordinates=False):
    """A simply supported block's pencil, numbered for the count_below oracle's
    factor."""
    mesh, faces = block_mesh_and_faces(dim, n, parity)
    dofmap = nested_dissection(build_dof_map(mesh, BC_SIMPLY_SUPPORTED, faces))
    pencil = assemble(mesh, dofmap, build_reference_element(dim))
    return (*pencil, dof_coordinates(dofmap)) if with_coordinates else pencil


@pytest.mark.parametrize("dim,n", [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)])
def test_spectrum_is_the_dense_spectrum_of_the_full_pencil(dim, n):
    a_mat, m_mat = block_pencil(dim, n, None)
    dense = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
    values, waves, vectors = symbol.block_spectra(dim, n, [None])[None]
    assert len(values) == len(waves) == len(vectors) == len(dense)
    assert np.max(np.abs(values - dense) / dense) <= 1e-12


@pytest.mark.parametrize("dim,top", [(2, 24), (3, 10)])
def test_each_parity_class_numbers_its_block(dim, top):
    # One eigenvalue per existing (wave vector, family) pair: as many as the
    # block has free DOFs, and the full box's for the union of the classes.
    for n in range(1, top + 1):
        spectra = {parity: values for parity, (values, _, _) in
                   symbol.block_spectra(dim, n, parities(dim) + [None]).items()}
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
    for parity, (values, _, _) in spectra.items():
        a_mat, m_mat = block_pencil(dim, n, parity)
        assert len(values) == a_mat.shape[0]
        for index in (0, 1, 5, 12):
            tau = values[index] * (1 + REL_GAP)
            assert np.searchsorted(values, tau) == count_below(a_mat, m_mat, tau)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]), fraction=st.floats(0.05, 0.95))
def test_counts_between_spectrum_points(data, dim, fraction):
    n = data.draw(st.integers(1, 8 if dim == 2 else 4), label="n")
    parity = data.draw(st.sampled_from([None] + (parities(dim) if n % 2 == 0 else [])),
                       label="parity")
    values, _, _ = symbol.block_spectra(dim, n, [parity])[parity]
    a_mat, m_mat = block_pencil(dim, n, parity)
    assert len(values) == a_mat.shape[0]
    index = data.draw(st.integers(-1, len(values) - 1), label="index")
    below = 0.0 if index < 0 else values[index]
    above = values[index + 1] if index + 1 < len(values) else 2.0 * values[-1]
    assume(above > below * (1 + 1e-6))
    tau = below + fraction * (above - below)
    assert np.searchsorted(values, tau) == count_below(a_mat, m_mat, tau) == index + 1


# Every pair of the full box at 2D n=2, 3 and 3D n=2 (the higher branches
# of each wave vector's pencil included); the first 12 of every block at 2D
# n=4, 8 and 3D n=4.
@pytest.mark.parametrize("dim,n,parity,k", [(2, 2, None, 12), (2, 3, None, None),
                                            (3, 2, None, None)]
                         + [(2, n, parity, 12) for n in (4, 8) for parity in parities(2)]
                         + [(3, 4, parity, 12) for parity in parities(3)])
def test_modes_are_the_eigenvectors(dim, n, parity, k):
    # M-orthonormal on the full box; on the half box of a parity block each
    # mode keeps 2^-dim of its mass.
    a_mat, m_mat, coords = block_pencil(dim, n, parity, with_coordinates=True)
    values, waves, vectors = (part[:k] for part in symbol.block_spectra(dim, n, [parity])[parity])
    assert k is None or len(values) == k
    modes = symbol.modes(coords, n, waves, vectors, np.eye(len(values)))
    assert modes.shape == (a_mat.shape[0], len(values))
    mass = 1.0 if parity is None else 2.0 ** -dim
    np.testing.assert_allclose(modes.T @ (m_mat @ modes), mass * np.eye(len(values)),
                               rtol=0, atol=1e-12)
    assert np.max(compute_residuals(a_mat, m_mat, values, modes)) <= 1e-12


def test_copies_agree_from_the_symbol_alone_at_2d_n1024():
    # p = (1, 2) and (2, 1) are mirror images; their pencils are computed
    # apart, in the opposite order of the facet families.
    values, waves, _ = symbol.wave_spectra(2, 1024, [(1, 2), (2, 1)])
    first, second = (values[np.all(waves == p, axis=1)] for p in ((1, 2), (2, 1)))
    assert len(first) == len(second) == 3
    assert np.max(np.abs(first - second) / first) <= 1e-10


@pytest.mark.parametrize("dim,n,blocks,orbits,waves", [
    (3, 16, ["oee", "ooe", "eee", "ooo"], 969, 2465),
    (2, 64, ["oe", "ee", "oo"], 2145, 3169),
    (3, 5, [None], 56, 216)])
def test_block_spectra_solve_one_pencil_per_orbit(dim, n, blocks, orbits, waves, monkeypatch):
    # The solve_problem representatives at 3D n=16 and 2D n=64, and the
    # full box at 3D n=5: one pencil per sorted wave vector.
    solved = []
    pencils = symbol._pencils

    def recorded(dim, n, batch):
        solved.append(np.array(batch))
        return pencils(dim, n, batch)

    monkeypatch.setattr(symbol, "_pencils", recorded)
    spectra = symbol.block_spectra(dim, n, blocks)
    (batch,) = solved
    sizes = {"e": (n + 1) // 2, "o": n // 2 + 1, "*": n + 1}
    assert sum(math.prod(sizes[letter] for letter in parity or "*" * dim)
               for parity in blocks) == waves
    assert len(batch) == len(np.unique(batch, axis=0)) == orbits
    assert np.array_equal(batch, np.sort(batch, axis=1))
    # Within a block, the pairs of mirror waves are bit-identical once the
    # facet rows are taken in the sorted order of the wave numbers.
    for values, wave_of, vectors in spectra.values():
        by_orbit = {}
        for p in np.unique(wave_of, axis=0):
            mine = np.all(wave_of == p, axis=1)
            rows = np.concatenate([[0], 1 + np.argsort(p, kind="stable")])
            pairs = (values[mine].tobytes(), vectors[mine][:, rows].tobytes())
            assert by_orbit.setdefault(tuple(np.sort(p)), pairs) == pairs


def test_first_eigenvalue_converges_from_below_at_second_order():
    # (4 pi^4 - lambda_h) / (4 pi^4) n^2 tends to a positive constant, near
    # 2.056: the stable symbol keeps it at sizes where the plain sum's
    # cancellation (about eps (n / pi)^4 relative) would swamp the error.
    exact = 4.0 * np.pi ** 4
    scaled = [(exact - symbol.wave_spectra(2, n, [(1, 1)])[0][0]) / exact * n ** 2
              for n in (256, 4096, 65536)]
    assert all(2.05 < value < 2.06 for value in scaled)
    assert abs(scaled[2] - scaled[1]) < 1e-4


# The solve takes its eigenvalues from the symbol, with no eigensolver: they
# are its blocks' symbol values, bit for bit, at every size.  Mirror-image
# wave vectors are evaluated apart, so the full box's copies of a value may
# differ from the block's in the last bits.
@pytest.mark.parametrize("dim,n", [(2, 64), (2, 128), (3, 16)])
def test_solve_matches_the_symbol_past_the_dense_oracle(dim, n):
    result = cli.solve_problem(dim, n, BC_SIMPLY_SUPPORTED)
    assert result.converged
    blocks = result.metadata["blocks"]
    spectra = symbol.block_spectra(dim, n, [block["parity"] for block in blocks])
    merged = np.sort(np.concatenate([np.repeat(spectra[block["parity"]][0],
                                               block["multiplicity"]) for block in blocks]))
    assert np.array_equal(result.eigenvalues, merged[:len(result.eigenvalues)])
    full = symbol.block_spectra(dim, n, [None])[None][0][:len(result.eigenvalues)]
    np.testing.assert_allclose(result.eigenvalues, full, rtol=1e-13, atol=0)


def clamped_blocks(dim, n):
    """The clamped blocks solve_problem counts, {parity: (A, M)}: its
    representatives of the half box (even n, split), or the full box, in its
    nested-dissection order."""
    mesh = build_mesh(dim, n)
    faces = None
    if n % 2 == 0 and free_dof_count(mesh, BC_CLAMPED) >= cli.SPLIT_MIN_ORDER[dim]:
        mesh = build_mesh(dim, n // 2, domain=((0.0,) * dim, (0.5,) * dim))
        faces = [BC_CLAMPED, FACE_FREE] * dim
    dofmap = nested_dissection(build_dof_map(mesh, BC_CLAMPED, faces))
    shared = assemble(mesh, dofmap, build_reference_element(dim))
    if faces is None:
        return {None: shared}
    blocks = {}
    for parity in {"".join(sorted(p, reverse=True)) for p in parities(dim)}:
        keep = restricted_dofs(dofmap, [face for letter in parity for face in
                                        (BC_CLAMPED, PARITY_ODD if letter == "o" else PARITY_EVEN)])
        blocks[parity] = tuple(mat[keep][:, keep] for mat in shared)
    return blocks


def midpoint_after(values, index):
    """A threshold between two distinct simply supported eigenvalues, the
    first gap at or past `index`."""
    gaps = np.flatnonzero(values[index + 1:] > values[index:-1] * (1 + 1e-9))
    j = index + gaps[0]
    return 0.5 * (values[j] + values[j + 1])


# The sizes solve_problem splits and those it solves as one block (odd n,
# and even n too small to split), up to the library sizes 2D n=256 and 3D
# n=24, where the oracle's factors take most of the time and one threshold
# per block is checked instead of four.
@pytest.mark.parametrize("dim,n", [(2, n) for n in (4, 7, 8, 12, 15, 16, 32, 63, 64, 128, 256)]
                         + [(3, n) for n in (3, 4, 5, 7, 8, 9, 11, 12, 16, 24)])
def test_clamped_count_is_the_inertia_count_of_every_block(dim, n):
    blocks = clamped_blocks(dim, n)
    spectra = symbol.block_spectra(dim, n, list(blocks))
    for parity, (a_mat, m_mat) in blocks.items():
        values = spectra[parity][0]
        taus = [midpoint_after(values, 5)]
        if n not in (256, 24):
            taus += [0.5 * values[0], midpoint_after(values, 40),
                     midpoint_after(values, len(values) // 2)]
        matrix = capacitance.Capacitance(dim, n, parity, spectra[parity], a_mat.shape[0])
        for tau in taus:
            assert matrix.count(tau) == count_below(a_mat, m_mat, tau)


def test_clamped_count_refuses_what_it_cannot_count():
    dim, n = 2, 8
    (a_mat, m_mat), = clamped_blocks(dim, n).values()
    values, waves, vectors = spectrum = symbol.block_spectra(dim, n, [None])[None]
    order, tau = a_mat.shape[0], midpoint_after(values, 5)
    matrix = capacitance.Capacitance(dim, n, None, spectrum, order)
    assert matrix.count(tau) == count_below(a_mat, m_mat, tau)
    # The block's order plus its outer-face facets is not the class's
    # number of modes.
    with pytest.raises(ValueError, match="modes"):
        capacitance.Capacitance(dim, n, None, spectrum, order + 1)
    # tau on a simply supported eigenvalue, or within its rounding.
    for at in (values[7], values[7] * (1 + capacitance.ROUNDING / 2)):
        with pytest.raises(ValueError, match="within rounding"):
            matrix.count(at)
    # No mode reaches the facets: the capacitance matrix is 0.
    with pytest.raises(ValueError, match="singular"):
        capacitance.Capacitance(dim, n, None, (values, waves, 0.0 * vectors), order).count(tau)


def dense_modes(coords, n, waves, vectors):
    """The eigenvectors of the pairs (waves, vectors) at the DOFs of doubled
    coordinates `coords`, one column per mode: each mode's family amplitudes
    times its weights, evaluated mode by mode (the oracle of symbol.modes)."""
    even = coords % 2 == 0
    vertex = even.all(axis=1)
    cos_axes = even & ~vertex[:, None]
    angles = (coords[:, None, :] * waves + n * cos_axes[:, None, :]) % (4 * n)
    amplitudes = np.sin(angles * (np.pi / (2 * n))).prod(axis=2)
    sines = np.sin(waves * (np.pi / (2 * n)))
    weights = np.column_stack([vectors[:, 0], 2 * n * (vectors[:, :1] * sines + vectors[:, 1:])])
    family = np.where(vertex, 0, 1 + np.argmax(cos_axes, axis=1))
    return 2 ** coords.shape[1] * amplitudes * weights[:, family].T


@pytest.mark.parametrize("dim,n,parity,used", [(2, 32, None, None), (2, 32, "oe", None),
                                               (3, 8, None, None), (3, 16, "ooe", None),
                                               (2, 64, "ee", 2), (3, 16, "eee", 1)])
def test_separable_mode_sum_matches_the_dense_one(dim, n, parity, used):
    # Six vectors over all of a class's waves, from random coefficients; or
    # over its first `used` modes only, which are summed mode by mode.
    mesh, faces = block_mesh_and_faces(dim, n, parity)
    coords = dof_coordinates(build_dof_map(mesh, BC_CLAMPED, faces))
    _, waves, vectors = symbol.block_spectra(dim, n, [parity])[parity]
    coefficients = np.random.default_rng(7).standard_normal((len(waves), 6))
    if used:
        coefficients[used:] = 0.0
    separable = symbol.modes(coords, n, waves, vectors, coefficients)
    dense = dense_modes(coords, n, waves, vectors) @ coefficients
    assert np.abs(separable - dense).max() <= 1e-14 * np.abs(dense).max()


def clamped_pencil(dim, n, parity=None):
    """A clamped block's pencil in id order and its DOFs' coordinates."""
    mesh, faces = block_mesh_and_faces(dim, n, parity)
    if faces is not None:
        faces = [BC_CLAMPED if face == BC_SIMPLY_SUPPORTED else face for face in faces]
    dofmap = build_dof_map(mesh, BC_CLAMPED, faces)
    return (*assemble(mesh, dofmap, build_reference_element(dim)), dof_coordinates(dofmap))


# Both engines of Capacitance.pairs: the dense modal pencil of a class with
# few modes, and the zeros of its capacitance blocks (DENSE_MODES = 0),
# split by an axis swap wherever the class has one (SWAP_MIN_ROWS = 0).
@pytest.mark.parametrize("dense_modes_limit", [capacitance.DENSE_MODES, 0])
@pytest.mark.parametrize("dim,n", [(2, n) for n in range(2, 7)] + [(3, 2), (3, 3)])
def test_clamped_pairs_are_every_eigenpair_of_the_block(dim, n, dense_modes_limit,
                                                        monkeypatch):
    monkeypatch.setattr(capacitance, "DENSE_MODES", dense_modes_limit)
    monkeypatch.setattr(capacitance, "SWAP_MIN_ROWS", dense_modes_limit)
    a_mat, m_mat, coords = clamped_pencil(dim, n)
    dense = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
    spectrum = symbol.block_spectra(dim, n, [None])[None]
    matrix = capacitance.Capacitance(dim, n, None, spectrum, a_mat.shape[0])
    values, coefficients = matrix.pairs(k=a_mat.shape[0])
    assert len(values) == a_mat.shape[0]
    np.testing.assert_allclose(values, dense, rtol=1e-12, atol=0)
    # Their vectors span the eigenvectors: after Rayleigh-Ritz, as the solve
    # takes them, every residual is at rounding.
    ritz, vectors = rayleigh_ritz(a_mat, m_mat,
                                  symbol.modes(coords, n, *spectrum[1:], coefficients))
    np.testing.assert_allclose(ritz, dense, rtol=1e-12, atol=0)
    assert np.max(compute_residuals(a_mat, m_mat, ritz, vectors)) <= 1e-12


@pytest.mark.parametrize("dense_modes_limit", [capacitance.DENSE_MODES, 0])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_2d_clamped_k_matches_the_dense_oracle(n, dense_modes_limit, monkeypatch):
    # solve_problem for every k, with each k's certificate: k that land on a
    # simply supported eigenvalue (2D n=3 k=13, n=4 k=22 and 28, n=5 k=37,
    # 41 and 49) included.
    monkeypatch.setattr(capacitance, "DENSE_MODES", dense_modes_limit)
    monkeypatch.setattr(capacitance, "SWAP_MIN_ROWS", dense_modes_limit)
    a_mat, m_mat, _ = clamped_pencil(2, n)
    dense = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True)
    for k in range(1, len(dense) + 1):
        result = cli.solve_problem(2, n, BC_CLAMPED, k)
        assert result.converged and result.method == symbol.METHOD_SYMBOL, k
        np.testing.assert_allclose(result.eigenvalues, dense[:k], rtol=1e-10, atol=0)
        assert result.metadata["k_closed"] == np.count_nonzero(dense < result.metadata["tau"])


@pytest.mark.parametrize("n", [8, 12, 15])
def test_2d_clamped_solve_matches_the_dense_oracle(n):
    a_mat, m_mat, _ = clamped_pencil(2, n)
    dense = dla.eigh(a_mat.toarray(), m_mat.toarray(), eigvals_only=True, subset_by_index=(0, 5))
    result = cli.solve_problem(2, n, BC_CLAMPED)
    assert result.converged
    np.testing.assert_allclose(result.eigenvalues, dense, rtol=1e-10, atol=0)
    assert max(result.residuals) <= 1e-12


# The pairs of the shift-invert route at the parent of the symbol route
# (ARPACK, certified by the symbol's counts), per n: the eigenvalues, and
# each block's (parity, multiplicity, order, count below tau); k_closed was
# 6 at every size.
ARPACK_PAIRS = {
    4: ([1075.8562526972962, 4481.4553639957885, 4481.455363995789, 7697.55902315125,
         15704.319905515416, 16296.520205368159], [(None, 1, 33, 6)]),
    8: ([1223.1075652085424, 5017.690402513283, 5017.690402513284, 9953.59109957029,
         16244.114226339192, 16520.50225207924], [(None, 1, 161, 6)]),
    15: ([1272.9688704207015, 5266.83830191493, 5266.83830191497, 11116.542619542017,
          16929.0301295666, 17123.43354559081], [(None, 1, 616, 6)]),
    32: ([1289.9935293670774, 5359.164790692752, 5359.164790692752, 11572.246713465574,
          17222.423857256166, 17393.384649415435],
         [("oe", 2, 736, 3), ("ee", 1, 736, 3), ("oo", 1, 737, 1)]),
    64: ([1293.6926677922338, 5379.719346041998, 5379.719346041998, 11675.717767256638,
          17290.361190028725, 17456.544170366466],
         [("oe", 2, 3008, 3), ("ee", 1, 3008, 3), ("oo", 1, 3009, 1)]),
}


@pytest.mark.parametrize("n", sorted(ARPACK_PAIRS))
def test_2d_clamped_solve_keeps_the_shift_invert_pairs_and_counts(n):
    values, blocks = ARPACK_PAIRS[n]
    result = cli.solve_problem(2, n, BC_CLAMPED)
    assert result.converged and result.method == symbol.METHOD_SYMBOL
    np.testing.assert_allclose(result.eigenvalues, values, rtol=1e-10, atol=0)
    assert [(b["parity"], b["multiplicity"], b["order"], b["count_below_tau"])
            for b in result.metadata["blocks"]] == blocks
    assert result.metadata["k_closed"] == 6
    # The floor of the relative residual grows like n^4: the shift-invert
    # route read 7.0e-12 at n=32 and 8.3e-11 at n=64.
    assert max(result.residuals) <= {32: 7e-12, 64: 8e-11}.get(n, 1e-12)


def test_one_block_mirror_pair_agrees():
    # 2D n=16 is one block: lambda_2 and lambda_3 are the roots of the
    # capacitance blocks of two mirror classes, Rayleigh-Ritz values of
    # vectors found apart.
    result = cli.solve_problem(2, 16, BC_CLAMPED)
    assert result.metadata["blocks"][0]["parity"] is None
    assert result.eigenvalues[1] == pytest.approx(result.eigenvalues[2], rel=1e-12, abs=0)


def test_a_mode_whose_facet_weights_vanish_is_a_pair_on_its_pole():
    # Zero one mode's facet weights: it becomes a clamped eigenpair of the
    # modified problem at its own eigenvalue, found with a one-hot
    # coefficient, and the count at a tau just above it holds it.
    dim, n = 2, 8
    values, waves, vectors = symbol.block_spectra(dim, n, [None])[None]
    j = 3
    vectors = vectors.copy()
    vectors[j, 1:] = -vectors[j, 0] * np.sin(waves[j] * (np.pi / (2 * n)))
    matrix = capacitance.Capacitance(dim, n, None, (values, waves, vectors), 161)
    assert list(matrix.isolated) == [j]
    found, coefficients = matrix.pairs(tau=values[j] * (1 + 1e-9))
    assert values[j] in found
    column = coefficients[:, list(found).index(values[j])]
    assert column[j] == 1.0 and np.count_nonzero(column) == 1
    assert matrix.count(values[j] * (1 + 1e-9)) == len(found)


def class_blocks(matrix):
    """Per class with rows of a Capacitance: its slice of the modes and its
    blocks."""
    return [(lo, hi, blocks) for _, lo, hi, blocks in matrix.classes]


def lifts(block):
    """The block's columns in its class's rows: U+ or U-, or the identity."""
    out = np.zeros((len(block.index), block.size))
    out[np.arange(len(block.index)), block.index] = block.scale
    return out


@pytest.mark.parametrize("dim,n,parity", [(3, 8, p) for p in ("oee", "ooe", "eee", "ooo")]
                         + [(3, 12, p) for p in ("oee", "ooe", "eee", "ooo")]
                         + [(3, 9, None), (3, 16, None), (2, 32, "ee"), (2, 32, "oo")])
def test_the_axis_swap_splits_each_class_block(dim, n, parity, monkeypatch):
    spectrum = symbol.block_spectra(dim, n, [parity])[parity]
    values, waves, _ = spectrum
    _, _, sizes, keys = capacitance._facet_rows(dim, n, parity)
    order = len(values) - int(sizes[list(keys)].sum())
    split = capacitance.Capacitance(dim, n, parity, spectrum, order)
    monkeypatch.setattr(capacitance, "SWAP_MIN_ROWS", 10 ** 9)
    whole = capacitance.Capacitance(dim, n, parity, spectrum, order)
    gaps = np.flatnonzero(values[1:] > values[:-1] * (1 + 1e-9))
    taus = 0.5 * (values[gaps] + values[gaps + 1])[np.linspace(0, len(gaps) - 1, 5).astype(int)]
    halved = 0
    for (lo, hi, blocks), (_, _, (block,)) in zip(class_blocks(split), class_blocks(whole)):
        if len(blocks) == 1:
            continue
        halved += 1
        plus, minus = blocks
        u_plus, u_minus = lifts(plus), lifts(minus)
        # U = [U+ U-] is orthogonal, and Q = U+ U+^T - U- U-^T is a
        # permutation of the class's rows and an involution.
        basis = np.hstack([u_plus, u_minus])
        np.testing.assert_allclose(basis.T @ basis, np.eye(block.size), atol=1e-15)
        swap = u_plus @ u_plus.T - u_minus @ u_minus.T
        np.testing.assert_allclose(np.sort(np.abs(swap), axis=1)[:, -1], 1.0, atol=1e-15)
        image = np.argmax(np.abs(swap), axis=1)
        assert np.array_equal(np.sort(image), np.arange(block.size))
        assert np.array_equal(image[image], np.arange(block.size))
        assert np.all(swap[np.arange(block.size), image] > 0)
        # Mirror modes, the k-th of wave p and of sigma p: g_{sigma p} = Q g_p
        # bit for bit.
        modes = split.modes[lo:hi]
        key = int((waves[modes[0]] % 2) @ (1 << np.arange(dim - 1, -1, -1)))
        perm = capacitance._swap_halves(dim, n, key)[0]
        rows, weights = split.rows[lo:hi], split.weights[lo:hi]
        by_wave = {}
        for j, p in enumerate(waves[modes]):
            by_wave.setdefault(tuple(p), []).append(j)
        mirrored = 0
        for p, mine in by_wave.items():
            theirs = by_wave[tuple(np.array(p)[perm])]
            if theirs is mine:
                continue
            mirrored += len(mine)
            assert np.array_equal(values[modes[theirs]], values[modes[mine]])
            for i, j in zip(theirs, mine):
                assert np.array_equal(weights[i][perm], weights[j])
                on_face = weights[j] != 0
                assert np.array_equal(rows[i][perm][on_face], image[rows[j]][on_face])
        assert mirrored > (hi - lo) // 2
        # Every mode lands in one half: an orbit of two modes gives a term to
        # each, a mode of a fixed wave to one.
        assert len(plus.poles) + len(minus.poles) == hi - lo
        np.testing.assert_array_equal(np.sort(np.concatenate([plus.poles, minus.poles])),
                                      np.sort(split.poles[lo:hi]))
        for tau in taus:
            whole_values = np.linalg.eigvalsh(block.matrix(tau))
            halves = np.sort(np.concatenate([np.linalg.eigvalsh(plus.matrix(tau)),
                                             np.linalg.eigvalsh(minus.matrix(tau))]))
            scale = np.abs(whole_values).max()
            assert np.abs(halves - whole_values).max() <= 1e-12 * scale
    # Every 3D class has two axes of one parity letter.
    assert halved == (2 ** dim if parity is None else 1)
    for tau in taus:
        assert split.count(tau) == whole.count(tau)


@pytest.mark.parametrize("n", [2, 4, 8, 9, 16])
def test_3d_clamped_solves_assemble_factor_and_run_no_eigensolver(n, monkeypatch):
    # Every 3D clamped pair comes from the symbol, as in 2D: no nested
    # dissection, no assembly, no factor and no solve_smallest call.
    from rectmorley import assembly, eigensolve

    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((assembly, "assemble"), (assembly, "nested_dissection"),
                         (eigensolve, "_ShiftedFactor"), (eigensolve, "solve_smallest")):
        monkeypatch.setattr(module, name, refused(name))
    result = cli.solve_problem(3, n, BC_CLAMPED)
    assert calls == []
    assert result.converged and result.method == symbol.METHOD_SYMBOL
    assert result.metadata["factor_nnz"] == result.metadata["opinv_applications"] == 0


MULTIPLICITY = {None: 1, "oee": 3, "ooe": 3, "eee": 1, "ooo": 1}


@pytest.mark.parametrize("n", range(2, 17))
def test_3d_clamped_solve_matches_the_shift_invert_oracle(n):
    # Each block solve_problem solves, assembled in nested-dissection order
    # and solved by shift-invert, merged with its multiplicity.
    from rectmorley.eigensolve import solve_smallest

    result = cli.solve_problem(3, n, BC_CLAMPED)
    assert result.converged
    merged = np.sort(np.concatenate([
        np.repeat(solve_smallest(a_mat, m_mat, 6).eigenvalues[:6], MULTIPLICITY[parity])
        for parity, (a_mat, m_mat) in clamped_blocks(3, n).items()]))
    np.testing.assert_allclose(result.eigenvalues, merged[:6], rtol=1e-10, atol=0)
