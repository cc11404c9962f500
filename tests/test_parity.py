"""The reflection-parity blocks of cli.solve_problem against the full pencil.

The full-pencil oracle assembles the whole unit box and calls
solve_smallest once, for k pairs (its shift-invert route, certified at its
own lambda_k (1 + REL_GAP)), and compares its first k values.
The block oracle numbers and assembles one half-box block on its own.
"""

import itertools
import weakref

import numpy as np
import pytest

from rectmorley import capacitance, cli, eigensolve
from rectmorley.assembly import (FACE_FREE, PARITY_EVEN, PARITY_ODD, assemble,
                                 build_dof_map, nested_dissection, restricted_dofs)
from rectmorley.eigensolve import smallest_k_dense, solve_smallest
from rectmorley.element import build_reference_element
from rectmorley.mesh import build_mesh

BCS = ("clamped", "simply-supported")


def full_pencil(dim, n, bc):
    """The pencil of the full box, numbered for a factor."""
    mesh = build_mesh(dim, n)
    return assemble(mesh, nested_dissection(build_dof_map(mesh, bc)),
                    build_reference_element(dim))


def half_box(dim, n):
    return build_mesh(dim, n // 2, domain=((0.0,) * dim, (0.5,) * dim))


def parity_faces(bc, parity):
    return [face for p in parity
            for face in (bc, PARITY_ODD if p == "o" else PARITY_EVEN)]


def recorded_factor(built):
    """A _ShiftedFactor that appends (shift, order) to `built` per factor."""
    class RecordedFactor(eigensolve._ShiftedFactor):
        def __init__(self, a_mat, m_mat, shift):
            built.append((shift, a_mat.shape[0]))
            super().__init__(a_mat, m_mat, shift)

    return RecordedFactor


def symbol_count(dim, n, a_mat):
    """The full box's clamped count from the symbol (Capacitance.count),
    which builds no factor."""
    from rectmorley import symbol

    spectrum = symbol.block_spectra(dim, n, [None])[None]
    return capacitance.Capacitance(dim, n, None, spectrum, a_mat.shape[0]).count


def block_eigenvalues(dim, n, bc, parity, k=6):
    """The k smallest eigenvalues of the half-box block of one parity
    ('e' or 'o' per axis), solved directly."""
    mesh = half_box(dim, n)
    dofmap = nested_dissection(build_dof_map(mesh, bc, parity_faces(bc, parity)))
    a_mat, m_mat = assemble(mesh, dofmap, build_reference_element(dim))
    return solve_smallest(a_mat, m_mat, k).eigenvalues[:k]


# The two routes round differently, so they can agree only to the float64
# accuracy of a Rayleigh quotient of the pencil, which falls like 1/h^4.  At
# 2D n=64 that is about 1e-11: the float64 and extended-precision Rayleigh
# quotients of one simply supported eigenvector differ by 1.6e-11 there, and
# the routes' lambda_1 by 1.0e-11.
@pytest.mark.parametrize("dim,n,rtol", [(2, 32, 1e-11), (2, 64, 5e-11),
                                        (3, 8, 1e-11), (3, 12, 1e-11)])
@pytest.mark.parametrize("bc", BCS)
def test_blocks_match_the_full_pencil(dim, n, rtol, bc):
    result = cli.solve_problem(dim, n, bc)
    assert len(result.metadata["blocks"]) == dim + 1
    assert result.converged
    a_mat, m_mat = full_pencil(dim, n, bc)
    assert result.metadata["order"] == a_mat.shape[0]
    oracle = solve_smallest(a_mat, m_mat, 6)
    np.testing.assert_allclose(result.eigenvalues, oracle.eigenvalues[:6], rtol=rtol, atol=0)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("bc", BCS)
def test_split_matches_the_dense_oracle(n, bc, monkeypatch):
    # Split every even n, however small, and compare with a solver that
    # uses no start vector.
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


@pytest.mark.parametrize("bc", BCS)
def test_3d_n16_blocks_are_solved_for_what_they_owe(bc, monkeypatch):
    arpack_runs, factors, walked = [], [], []
    eigsh, pairs = eigensolve.sla.eigsh, capacitance.Capacitance.pairs

    def counting_eigsh(*args, **kwargs):
        arpack_runs.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    def counting_pairs(*args, **kwargs):
        values, coefficients = pairs(*args, **kwargs)
        walked.append(len(values))
        return values, coefficients

    monkeypatch.setattr(eigensolve.sla, "eigsh", counting_eigsh)
    monkeypatch.setattr(eigensolve, "_ShiftedFactor", recorded_factor(factors))
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
    assert arpack_runs == factors == []
    assert meta["opinv_applications"] == meta["factor_nnz"] == 0


@pytest.mark.parametrize("dim,n", [(2, 8), (3, 6)])
@pytest.mark.parametrize("bc", BCS)
def test_every_parity_block_is_a_slice_of_the_shared_pencil(dim, n, bc, monkeypatch):
    # One numbering and one assembly of the half box with free mid-plane
    # faces; each parity block is the principal submatrix on its free DOFs.
    mesh, element = half_box(dim, n), build_reference_element(dim)

    def numbered(faces):
        """The numbering solve_problem gives: bisected for the clamped factors."""
        dofmap = build_dof_map(mesh, bc, faces)
        return nested_dissection(dofmap) if bc == "clamped" else dofmap

    shared_map = numbered([bc, FACE_FREE] * dim)
    shared = assemble(mesh, shared_map, element)
    slices = {}
    for parity in map("".join, itertools.product("eo", repeat=dim)):
        faces = parity_faces(bc, parity)
        keep = restricted_dofs(shared_map, faces)
        slices[parity] = [mat[keep][:, keep] for mat in shared]
        own_map = numbered(faces)
        # own[i]: the block's own DOF number of the i-th kept shared DOF,
        # matched through the entity ids.
        free = own_map.entity_dof >= 0
        own = np.empty(len(keep), dtype=np.int64)
        own[np.searchsorted(keep, shared_map.entity_dof[free])] = own_map.entity_dof[free]
        assert np.array_equal(np.sort(own), np.arange(own_map.num_free))
        for sliced, assembled in zip(slices[parity], assemble(mesh, own_map, element)):
            assert sliced.has_canonical_format
            assert (assembled[own][:, own] != sliced).nnz == 0
        # A slice keeps id order; in 2D it keeps the bisection order too.
        if dim == 2 or bc == "simply-supported":
            assert np.array_equal(own, np.arange(own_map.num_free))
    # solve_problem solves exactly these slices, representatives first: on
    # the dense route with solve_smallest, on the auto route by checking the
    # symbol's pairs in each block (eigensolve.solved) with operators that
    # apply the block's pencil cell by cell, summed in another order, in the
    # id order of its own numbering (for a simply supported block, its
    # slice).
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
            own = slices[parity] if assembled or bc == "simply-supported" else assemble(
                mesh, build_dof_map(mesh, bc, parity_faces(bc, parity)), element)
            for mat, expected in zip(pencil, own):
                if assembled:
                    assert (mat != expected).nnz == 0
                else:
                    applied, expected = mat @ np.eye(mat.shape[0]), expected.toarray()
                    assert np.abs(applied - expected).max() <= 1e-13 * np.abs(expected).max()


@pytest.mark.parametrize("dim,n,bc", [(2, 64, "simply-supported"), (2, 15, "simply-supported"),
                                      (3, 8, "simply-supported"), (3, 16, "simply-supported"),
                                      (2, 64, "clamped"), (3, 8, "clamped")])
def test_only_clamped_solves_assemble(dim, n, bc, monkeypatch):
    # A block on the auto route numbers its own DOFs and applies the element
    # matrices cell by cell: no shared map, no assembly and no slices.  Only
    # a clamped problem on the dense route numbers, bisects and assembles
    # its shared map, once.
    from rectmorley import assembly

    calls = []

    def recorded(name):
        function = getattr(assembly, name)

        def call(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return call

    for name in ("assemble", "build_dof_map", "nested_dissection", "restricted_dofs"):
        monkeypatch.setattr(assembly, name, recorded(name))
    blocks = cli.solve_problem(dim, n, bc).metadata["blocks"]
    assert calls == ["build_dof_map"] * len(blocks)
    assert len(blocks) == (1 if n == 15 else dim + 1)
    if bc == "clamped":
        calls.clear()
        assert cli.solve_problem(dim, 8, bc, solver="dense").converged
        assert calls[:3] == ["build_dof_map", "nested_dissection", "assemble"]
        assert calls.count("assemble") == 1


@pytest.mark.parametrize("dim,n,bc,k_closed", [(3, 4, "clamped", 7),
                                               (2, 4, "simply-supported", 6)])
def test_one_block_solve_builds_at_most_two_factors(dim, n, bc, k_closed, monkeypatch):
    # 3D n=4 clamped: k=6 cuts the 8539.68 triple.  2D simply supported
    # n=4, where ARPACK would skip a copy of the (1,3)/(3,1) pair, takes
    # both from the symbol.  solve_problem takes every pair from the symbol
    # and builds no factor; solve_smallest on the clamped pencil needs a
    # completion pass after its count.
    factors, kept, arpack_runs = [], [], []
    eigsh = eigensolve.sla.eigsh

    def counting_eigsh(*args, **kwargs):
        arpack_runs.append(kwargs["k"])
        return eigsh(*args, **kwargs)

    class KeptFactor(recorded_factor(factors)):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append(self)

    monkeypatch.setitem(cli.SPLIT_MIN_ORDER, dim, 10 ** 9)
    monkeypatch.setattr(eigensolve, "_ShiftedFactor", KeptFactor)
    monkeypatch.setattr(eigensolve.sla, "eigsh", counting_eigsh)
    result = cli.solve_problem(dim, n, bc)
    assert result.converged and result.method == "symbol"
    assert len(result.metadata["blocks"]) == 1
    assert result.metadata["k_closed"] == k_closed
    assert arpack_runs == factors == []
    if bc == "clamped":
        # A library pencil is solved for k pairs on an SPD factor, counted
        # by a factor of A - tau M, and completed on the same SPD factor, so
        # its operator applications are that one factor's.
        a_mat, m_mat = full_pencil(dim, n, bc)
        library = solve_smallest(a_mat, m_mat, 6)
        assert library.converged
        assert library.metadata["count_below_tau"] == k_closed
        assert len(arpack_runs) == 2
        tau = library.metadata["tau"]
        assert factors == [(0.0, a_mat.shape[0]), (tau, a_mat.shape[0])]
        assert library.metadata["opinv_applications"] == kept[0].applications


@pytest.mark.parametrize("dim,n", [(2, 4), (2, 32), (2, 64), (3, 4), (3, 8), (3, 16)])
@pytest.mark.parametrize("bc", BCS)
def test_only_clamped_blocks_build_count_factors(dim, n, bc, monkeypatch):
    # Every block is counted once below a tau, from the symbol: a clamped
    # block by its capacitance matrix, a simply supported one by its modes.
    # No block builds a count factor, nor any other: every block takes its
    # pairs from the symbol.
    factors, counted = [], []
    count = capacitance.Capacitance.count

    def recorded_count(self, tau):
        counted.append(tau)
        return count(self, tau)

    monkeypatch.setattr(eigensolve, "_ShiftedFactor", recorded_factor(factors))
    monkeypatch.setattr(capacitance.Capacitance, "count", recorded_count)
    result = cli.solve_problem(dim, n, bc)
    assert result.converged
    assert factors == []
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

    for module, name in ((eigensolve, "_ShiftedFactor"), (eigensolve, "solve_smallest"),
                         (eigensolve, "smallest_k_dense"), (eigensolve, "count_below"),
                         (eigensolve.sla, "eigsh")):
        monkeypatch.setattr(module, name, refused(name))
    result = cli.solve_problem(dim, n, "simply-supported")
    assert calls == []
    assert result.converged and result.method == "symbol"
    assert len(result.metadata["blocks"]) == (1 if n in (3, 4, 5) else dim + 1)
    assert result.metadata["factor_nnz"] == result.metadata["opinv_applications"] == 0
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
def test_at_most_one_factor_is_alive(dim, n, bc, monkeypatch):
    # solve_problem builds no factor.  solve_smallest, counted from the
    # symbol, builds one SPD factor and completes a short slice on it, so
    # the peak memory holds one factor, not two.
    alive, before = [], []

    class TrackedFactor(eigensolve._ShiftedFactor):
        def __init__(self, a_mat, m_mat, shift):
            before.append(sum(ref() is not None for ref in alive))
            super().__init__(a_mat, m_mat, shift)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(eigensolve, "_ShiftedFactor", TrackedFactor)
    assert cli.solve_problem(dim, n, bc).converged
    assert before == []
    if bc == "clamped":
        a_mat, m_mat = full_pencil(dim, min(n, 8), bc)
        for k in (6, 8):
            assert solve_smallest(a_mat, m_mat, k,
                                  count=symbol_count(dim, min(n, 8), a_mat)).converged
        assert before == [0, 0]


def test_a_block_the_symbol_cannot_number_gets_no_count(monkeypatch):
    # A class whose eigenvalue count is not its block's order: the block's
    # count is untrusted, and no factor or eigensolver replaces it.
    from rectmorley import symbol

    spectra = symbol.block_spectra

    def one_short(dim, n, parities):
        out = spectra(dim, n, parities)
        out["ee"] = tuple(part[1:] for part in out["ee"])
        return out

    factors = []
    monkeypatch.setattr(symbol, "block_spectra", one_short)
    monkeypatch.setattr(eigensolve, "_ShiftedFactor", recorded_factor(factors))
    result = cli.solve_problem(2, 32, "simply-supported")
    blocks = {b["parity"]: b for b in result.metadata["blocks"]}
    assert blocks["ee"]["count_below_tau"] is None and not blocks["ee"]["converged"]
    assert blocks["oe"]["converged"] and blocks["oo"]["converged"]
    assert not result.converged
    assert not factors


@pytest.mark.parametrize("dim,n,bc", [(3, 4, "clamped"), (2, 32, "clamped"),
                                      (3, 5, "clamped"), (3, 8, "clamped")])
def test_krylov_basis_is_sized_to_the_request(dim, n, bc, monkeypatch):
    # An undeflated run (from the attempt-0 start vector) keeps 2k + 1
    # vectors, at most order - 1; a deflated completion pass keeps its own.
    # A clamped solve runs no ARPACK, so the full pencil is solved as a
    # library pencil, counted from the symbol.
    calls = []
    eigsh = eigensolve.sla.eigsh

    def recording_eigsh(*args, **kwargs):
        calls.append((args[0].shape[0], kwargs))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(eigensolve.sla, "eigsh", recording_eigsh)
    a_mat, m_mat = full_pencil(dim, n, bc)
    assert solve_smallest(a_mat, m_mat, 6, count=symbol_count(dim, n, a_mat)).converged
    undeflated = [(order, kwargs) for order, kwargs in calls if np.array_equal(
        kwargs["v0"], eigensolve.deterministic_start_vector(order, 0))]
    assert undeflated
    for order, kwargs in undeflated:
        assert kwargs["ncv"] == min(order - 1, 2 * kwargs["k"] + 1)
    # In 3D k=6 cuts a triple, and one deflated pass completes it.
    assert len(calls) - len(undeflated) == (dim == 3)


@pytest.mark.parametrize("n", [4, 15, 16, 32, 64])
def test_2d_clamped_solves_assemble_factor_and_run_no_eigensolver(n, monkeypatch):
    # Every 2D clamped pair comes from the symbol: no nested dissection, no
    # assembly or slice, no factor, no eigsh and no solve_smallest call, in
    # one block (n=4, 15, 16) or split (n=32, 64).
    from rectmorley import assembly

    calls = []

    def refused(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((assembly, "assemble"), (assembly, "nested_dissection"),
                         (assembly, "restricted_dofs"), (eigensolve, "_ShiftedFactor"),
                         (eigensolve, "solve_smallest"), (eigensolve, "smallest_k_dense"),
                         (eigensolve.sla, "eigsh")):
        monkeypatch.setattr(module, name, refused(name))
    result = cli.solve_problem(2, n, "clamped")
    assert calls == []
    assert result.converged and result.method == "symbol"
    assert len(result.metadata["blocks"]) == (3 if n in (32, 64) else 1)
    assert result.metadata["factor_nnz"] == result.metadata["opinv_applications"] == 0


@pytest.mark.parametrize("dim,n,solver,route", [(2, 8, "dense", "smallest_k_dense"),
                                                 (2, 32, "dense", "smallest_k_dense"),
                                                 (3, 8, "auto", "_ShiftedFactor")])
def test_dense_and_3d_clamped_solves_still_assemble(dim, n, solver, route, monkeypatch):
    # Only --solver dense assembles: it solves every clamped block with
    # smallest_k_dense on the assembled pencil.  A 3D clamped solve on the
    # auto route takes its pairs from the symbol: no assembly, no factor.
    from rectmorley import assembly

    calls, assembled = [], []
    original, assemble_pencil = getattr(eigensolve, route), assembly.assemble

    def recorded(*args, **kwargs):
        calls.append(route)
        return original(*args, **kwargs)

    def recorded_assemble(*args, **kwargs):
        assembled.append(1)
        return assemble_pencil(*args, **kwargs)

    monkeypatch.setattr(eigensolve, route, recorded)
    monkeypatch.setattr(assembly, "assemble", recorded_assemble)
    result = cli.solve_problem(dim, n, "clamped", solver=solver)
    assert result.converged
    if solver == "dense":
        assert len(calls) >= len(result.metadata["blocks"])
        assert assembled == [1]
    else:
        assert calls == assembled == []
        assert result.method == "symbol"
