import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rectmorley
from rectmorley import capacitance, cli, eigensolve, reference
from rectmorley.operators import SUITES


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a child interpreter that imports this same rectmorley."""
    env = dict(os.environ)
    source = os.path.dirname(os.path.dirname(rectmorley.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_text_output_matches_known_value(capsys):
    code, out, err = run_cli(
        ["solve", "--dim", "2", "--n", "4", "--bc", "clamped", "--k", "1"], capsys
    )
    assert code == 0
    assert "1075.8563" in out
    assert "converged=yes" in out
    assert err == ""


def test_solve_json_payload(capsys):
    code, out, _ = run_cli(
        ["solve", "--dim", "2", "--n", "4", "--bc", "simply-supported",
         "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert payload["bc"] == "simply-supported"
    run = payload["runs"][0]
    assert run["n"] == 4
    assert run["order"] == 49
    assert len(run["eigenvalues"]) == 6
    assert run["eigenvalues"][0] == pytest.approx(347.5266, rel=1e-6)
    assert all(r < 1e-8 for r in run["residuals"])


def test_solve_json_reports_solver_work(capsys, refuse_factors):
    # A clamped solve takes its pairs from the symbol, with no factor and no
    # ARPACK run, in 3D as in 2D.  One block: it is counted at tau =
    # lambda_6 (1 + REL_GAP).  At 3D n=3, k=6 cuts the triple lambda_6..8,
    # and the count closes it there.
    for dim, n, k_closed in ((3, 3, 8), (2, 8, 6)):
        code, out, _ = run_cli(
            ["solve", "--dim", str(dim), "--n", str(n), "--format", "json"], capsys
        )
        assert code == 0
        run = json.loads(out)["runs"][0]
        assert run["method"] == "symbol"
        meta = run["metadata"]
        assert meta["tau"] == pytest.approx(run["eigenvalues"][5] * (1 + 1e-6), rel=1e-12)
        (block,) = meta["blocks"]
        assert block["tau"] == meta["tau"]
        assert block["count_below_tau"] == meta["k_closed"] == k_closed


def test_solve_json_reports_parity_blocks(capsys):
    code, out, _ = run_cli(
        ["solve", "--dim", "3", "--n", "8", "--format", "json"], capsys
    )
    assert code == 0
    run = json.loads(out)["runs"][0]
    meta = run["metadata"]
    blocks = meta["blocks"]
    # Listed in solve order: largest multiplicity first.
    assert [b["parity"] for b in blocks] == ["oee", "ooe", "eee", "ooo"]
    assert [b["multiplicity"] for b in blocks] == [3, 3, 1, 1]
    assert sum(b["order"] * b["multiplicity"] for b in blocks) == run["order"] == 1687
    assert all(b["converged"] for b in blocks)
    # oee alone gives 3 x 2 values and is counted at its own second
    # eigenvalue, which is also ooe's running tau; eee and ooo are counted
    # at the final tau.  ooo owes no pair.
    assert [b["count_below_tau"] for b in blocks] == [2, 1, 1, 0]
    assert blocks[2]["tau"] == blocks[3]["tau"] == meta["tau"] < blocks[1]["tau"]
    assert blocks[1]["tau"] == blocks[0]["tau"]
    # The running tau of a later block is at or above the final tau, so every
    # block holds each of its eigenvalues below the final tau: k=6 cuts the
    # 11655.163 triple, and its third copy makes 7.
    assert meta["k_closed"] == 7
    # The 6369.4367 triple: one copy in each block with one odd axis.
    assert run["parities"] == ["eee", "eeo", "eoe", "oee", "eoo", "oeo"]

    for dim, n in ((2, 16), (3, 5)):
        code, out, _ = run_cli(
            ["solve", "--dim", str(dim), "--n", str(n), "--format", "json"], capsys
        )
        assert code == 0
        run = json.loads(out)["runs"][0]
        (block,) = run["metadata"]["blocks"]
        assert block["parity"] is None and block["multiplicity"] == 1
        assert block["order"] == run["order"]
        assert run["parities"] == [None] * 6


# The dense route solves the assembled blocks in id order and counts each
# from its whole LAPACK spectrum, the auto route takes its pairs and counts
# from the symbol: they agree to the float64 accuracy of the dense solve,
# 3.8e-11 at 2D n=32, and block for block in their counts, so the dense
# route checks Capacitance.count.  3D n=3 is one block, where k=20 cuts a
# cluster; 2D n=32 and 3D n=8 are split, and --solver applies to every
# block, also to the one that owes nothing.
@pytest.mark.parametrize("dim,n,k", [(2, 8, 6), (2, 12, 6), (2, 24, 6), (2, 32, 6),
                                     (3, 3, 20), (3, 4, 6), (3, 8, 6)])
def test_dense_route_matches_the_auto_route(dim, n, k, capsys):
    runs = {}
    for solver in ("auto", "dense"):
        code, out, err = run_cli(["solve", "--dim", str(dim), "--n", str(n), "--k", str(k),
                                  "--solver", solver, "--format", "json"], capsys)
        assert code == 0 and err == ""
        runs[solver] = json.loads(out)["runs"][0]
    assert runs["dense"]["method"] == "dense"
    assert runs["dense"]["metadata"]["k_closed"] == runs["auto"]["metadata"]["k_closed"]
    blocks = {solver: [(b["parity"], b["multiplicity"], b["count_below_tau"], b["converged"])
                       for b in run["metadata"]["blocks"]] for solver, run in runs.items()}
    assert blocks["dense"] == blocks["auto"]
    np.testing.assert_allclose(runs["dense"]["eigenvalues"], runs["auto"]["eigenvalues"],
                               rtol=2e-10, atol=0)


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 8)])
def test_the_dense_route_does_not_rely_on_the_symbol_count(dim, n, monkeypatch, capsys):
    # A symbol count that reads one low drops eigenvalues on the auto route,
    # which then exits 1; --solver dense counts its own spectrum, so it still
    # returns the six smallest eigenvalues of the full clamped pencil,
    # converged, without building a capacitance matrix or the symbol's
    # spectra.
    from rectmorley import symbol
    from rectmorley.assembly import BC_CLAMPED, assemble, build_dof_map
    from rectmorley.element import build_reference_element
    from rectmorley.mesh import build_mesh

    count, init, spectra = (capacitance.Capacitance.count, capacitance.Capacitance.__init__,
                            symbol.block_spectra)
    built, spectra_calls = [], []

    def one_low(self, tau):
        return count(self, tau) - 1

    def recorded_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def recorded_spectra(*args, **kwargs):
        spectra_calls.append(args)
        return spectra(*args, **kwargs)

    monkeypatch.setattr(capacitance.Capacitance, "count", one_low)
    argv = ["solve", "--dim", str(dim), "--n", str(n), "--format", "json"]
    assert run_cli(argv, capsys)[0] == 1
    monkeypatch.setattr(capacitance.Capacitance, "__init__", recorded_init)
    monkeypatch.setattr(symbol, "block_spectra", recorded_spectra)
    code, out, err = run_cli(argv + ["--solver", "dense"], capsys)
    assert code == 0 and err == ""
    assert built == [] and spectra_calls == []
    run = json.loads(out)["runs"][0]
    assert run["method"] == "dense" and run["metadata"]["converged"]
    mesh = build_mesh(dim, n)
    dense = eigensolve.smallest_k_dense(
        *assemble(mesh, build_dof_map(mesh, BC_CLAMPED), build_reference_element(dim)), 6)
    np.testing.assert_allclose(run["eigenvalues"], dense.eigenvalues, rtol=2e-10, atol=0)


def test_the_benchmark_warm_up_reaches_lapack(monkeypatch, capsys):
    # The benchmark's untimed warm-up runs this argv to take the first
    # sizeable LAPACK call's cost: 2D n=12 clamped is one block of order
    # 385, below SPLIT_MIN_ORDER, solved by one solve_smallest call.
    solves = []
    solve_smallest = eigensolve.solve_smallest

    def recorded(*args, **kwargs):
        solves.append(args[0].shape)
        return solve_smallest(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_smallest", recorded)
    code, out, err = run_cli(["solve", "--dim", "2", "--n", "12", "--solver", "dense",
                              "--format", "json"], capsys)
    assert code == 0 and err == ""
    run = json.loads(out)["runs"][0]
    assert run["method"] == "dense"
    (block,) = run["metadata"]["blocks"]
    assert block["parity"] is None and block["order"] == 385 and block["converged"]
    assert solves == [(385, 385)]


@pytest.mark.parametrize("dim,n", [(2, 4), (3, 8)])
def test_solve_exits_1_when_the_symbol_cannot_count(dim, n, monkeypatch, capsys,
                                                     refuse_factors):
    # Each of the symbol count's three refusals leaves every clamped block
    # uncounted, and the solve exits 1: a class that does not number its
    # block, tau on a simply supported eigenvalue, and a singular
    # capacitance matrix (no mode reaches the facets).  No factor stands in
    # for it: a clamped block takes its pairs from the symbol and builds
    # none at all.
    from rectmorley import symbol

    spectra, count = symbol.block_spectra, capacitance.Capacitance.count

    def one_short(*args):
        return {p: tuple(part[1:] for part in spectrum)
                for p, spectrum in spectra(*args).items()}

    def tau_on_a_value(self, tau):
        self.values = self.values.copy()
        self.values[np.argmin(np.abs(self.values - tau))] = tau
        return count(self, tau)

    def no_facets(self, tau):
        for *_, blocks in self.classes:
            for block in blocks:
                block.products, block.magnitudes = 0.0 * block.products, 0.0 * block.magnitudes
        return count(self, tau)

    for owner, name, spoiled in ((symbol, "block_spectra", one_short),
                                 (capacitance.Capacitance, "count", tau_on_a_value),
                                 (capacitance.Capacitance, "count", no_facets)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, spoiled)
            code, out, err = run_cli(["solve", "--dim", str(dim), "--n", str(n),
                                      "--format", "json"], capsys)
        assert code == 1, name
        assert "did not converge" in err
        meta = json.loads(out)["runs"][0]["metadata"]
        assert not meta["converged"]
        assert all(b["count_below_tau"] is None and not b["converged"]
                   for b in meta["blocks"])


@pytest.mark.parametrize("dim,n,k,method", [(2, 3, 13, "symbol"), (2, 4, 22, "symbol"),
                                             (2, 4, 28, "symbol"), (2, 5, 37, "symbol"),
                                             (2, 5, 41, "symbol"), (2, 5, 49, "symbol"),
                                             (3, 2, 9, "symbol"), (3, 2, 11, "symbol"),
                                             (3, 3, 55, "symbol"), (3, 3, 58, "symbol"),
                                             (3, 2, 9, "dense"), (3, 2, 11, "dense"),
                                             (3, 3, 55, "dense"), (3, 3, 58, "dense")])
def test_clamped_k_next_to_a_pole_is_certified(dim, n, k, method, capsys):
    # tau = lambda_k (1 + REL_GAP) lies 1e-6 above a simply supported
    # eigenvalue of another parity class, a pole of the capacitance matrix:
    # each class block's rounding bound is its own, so the symbol's count
    # holds.  --solver dense counts its whole LAPACK spectrum instead, and
    # must close the same clusters.  In 3D the count then finds a cluster
    # that fills the pencil, or all but one pair of it.
    from rectmorley.assembly import BC_CLAMPED, assemble, build_dof_map
    from rectmorley.element import build_reference_element
    from rectmorley.mesh import build_mesh

    solver = ["--solver", "dense"] if method == "dense" else []
    code, out, err = run_cli(["solve", "--dim", str(dim), "--n", str(n), "--k", str(k),
                              "--format", "json"] + solver, capsys)
    assert code == 0 and err == ""
    run = json.loads(out)["runs"][0]
    assert run["method"] == method
    mesh = build_mesh(dim, n)
    dense = eigensolve.smallest_k_dense(
        *assemble(mesh, build_dof_map(mesh, BC_CLAMPED), build_reference_element(dim)), k)
    np.testing.assert_allclose(run["eigenvalues"], dense.eigenvalues, rtol=1e-10, atol=0)


def clamped_3d_n3_pencil():
    """The assembled pencil of 3D clamped n=3 (order 62)."""
    from rectmorley.assembly import BC_CLAMPED, assemble, build_dof_map
    from rectmorley.element import build_reference_element
    from rectmorley.mesh import build_mesh

    mesh = build_mesh(3, 3)
    return assemble(mesh, build_dof_map(mesh, BC_CLAMPED), build_reference_element(3))


@pytest.mark.parametrize("k", [59, 60])
def test_3d_n3_k59_and_k60_converge(k, capsys):
    # 59 or 60 pairs of the order-62 pencil, where an ARPACK basis of
    # order - 1 vectors cannot apply its shifts: the symbol's pairs need no
    # Krylov basis.
    code, out, err = run_cli(["solve", "--dim", "3", "--n", "3", "--k", str(k),
                              "--format", "json"], capsys)
    assert code == 0 and err == ""
    run = json.loads(out)["runs"][0]
    assert run["method"] == "symbol"
    dense = eigensolve.smallest_k_dense(*clamped_3d_n3_pencil(), k)
    np.testing.assert_allclose(run["eigenvalues"], dense.eigenvalues, rtol=1e-10, atol=0)


def test_traced_solve_smallest_sees_every_block_solve_and_count(monkeypatch):
    # A traced benchmark run swaps eigensolve.solve_smallest for a wrapper
    # that opens an eigensolve span.  solve_problem must look it up at call
    # time.  Every count runs inside it, on the block's own spectrum: the
    # symbol's count (Capacitance.count) runs nowhere.  Only the dense
    # route calls it: the auto route takes its pairs from the symbol
    # (test_parity.py).
    solve_smallest, count = eigensolve.solve_smallest, capacitance.Capacitance.count
    open_spans, solves, counts = [], [], []

    @functools.wraps(solve_smallest)
    def traced(*args, **kwargs):
        solves.append(kwargs.get("tau") is not None)
        open_spans.append("eigensolve")
        try:
            return solve_smallest(*args, **kwargs)
        finally:
            open_spans.pop()

    def counting(*args, **kwargs):
        counts.append(list(open_spans))
        return count(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_smallest", traced)
    monkeypatch.setattr(capacitance.Capacitance, "count", counting)
    result = cli.solve_problem(3, 6, "clamped", solver="dense")
    assert result.converged
    # oee for ceil(k / 3) pairs, certified at its own tau; then ooe, eee
    # and ooo below the running tau.  One solve per block.
    assert solves == [False, True, True, True]
    assert counts == []


def test_solve_fine_2d_simply_supported_passes_residual_check(capsys):
    code, out, err = run_cli(
        ["solve", "--dim", "2", "--n", "128", "--bc", "simply-supported",
         "--format", "json"], capsys
    )
    assert code == 0, err
    run = json.loads(out)["runs"][0]
    assert run["metadata"]["converged"]
    assert max(run["residuals"]) <= 1e-8
    assert run["eigenvalues"][0] == pytest.approx(4 * math.pi ** 4, rel=1e-3)


def test_solver_choice_reaches_only_clamped_problems(capsys):
    # --solver dense changes the route of clamped blocks; simply supported
    # ones take their pairs from the symbol whatever it says.
    outputs = {}
    for solver in ("auto", "dense"):
        code, out, _ = run_cli(["solve", "--n", "8", "--bc", "simply-supported", "--solver",
                                solver, "--format", "json"], capsys)
        assert code == 0
        outputs[solver] = out
    assert outputs["auto"] == outputs["dense"]
    run = json.loads(outputs["dense"])["runs"][0]
    assert run["method"] == "symbol" and run["metadata"]["converged"]
    assert "sigma" not in run["metadata"] and "tol" not in run["metadata"]
    code, out, _ = run_cli(["solve", "--n", "8", "--solver", "dense", "--format", "json"],
                           capsys)
    assert code == 0 and json.loads(out)["runs"][0]["method"] == "dense"
    with pytest.raises(SystemExit):
        cli.main(["solve", "--help"])
    assert "simply supported ones take their eigenpairs" in " ".join(
        capsys.readouterr().out.split())


def test_every_route_reports_the_same_metadata_keys(capsys):
    # Clamped auto, clamped dense and simply supported runs, one block and
    # split, share one metadata schema and one block schema.
    keys = set()
    for argv in (["--n", "8"], ["--n", "8", "--solver", "dense"],
                 ["--n", "8", "--bc", "simply-supported"], ["--dim", "3", "--n", "8"],
                 ["--dim", "3", "--n", "8", "--solver", "dense"],
                 ["--dim", "3", "--n", "8", "--bc", "simply-supported"]):
        code, out, _ = run_cli(["solve", *argv, "--format", "json"], capsys)
        assert code == 0
        meta = json.loads(out)["runs"][0]["metadata"]
        keys.add((frozenset(meta), frozenset(frozenset(b) for b in meta["blocks"])))
    assert keys == {(frozenset({"order", "k", "tau", "k_closed", "converged", "blocks"}),
                     frozenset({frozenset({"parity", "multiplicity", "order", "tau",
                                           "count_below_tau", "converged"})}))}


@pytest.mark.parametrize("bc", ["clamped", "simply-supported"])
def test_solve_problem_refuses_an_unknown_solver_for_either_bc(bc):
    with pytest.raises(ValueError, match="unknown solver method 'bogus'"):
        cli.solve_problem(2, 8, bc, solver="bogus")


def test_solve_csv_layout(capsys):
    code, out, _ = run_cli(
        ["solve", "--n", "2", "--k", "2", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,index,eigenvalue,residual,method"
    assert len(lines) == 3
    assert lines[1].startswith("2,1,")
    # Every number field is a plain float literal equal to the JSON value,
    # on the dense route and the symbol's, for either bc and dimension.
    for argv, method in ((["solve", "--dim", "3", "--n", "2", "--k", "12", "--solver", "dense"],
                          "dense"),
                         (["solve", "--dim", "3", "--n", "3"], "symbol"),
                         (["solve", "--n", "4"], "symbol"),
                         (["solve", "--n", "4", "--bc", "simply-supported"], "symbol")):
        code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        code, out, _ = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0
        run = json.loads(out)["runs"][0]
        assert [float(row[2]) for row in rows] == run["eigenvalues"]
        assert [float(row[3]) for row in rows] == run["residuals"]
        assert {row[4] for row in rows} == {run["method"]} == {method}


def csv_holds(field, value):
    """A CSV field holds its JSON value: empty for None, yes/no for a bool,
    and otherwise a plain float literal equal to it."""
    if value is None or isinstance(value, bool):
        return field == {None: "", True: "yes", False: "no"}[value]
    return float(field) == value


@pytest.mark.parametrize("argv", [["table", "1", "--n", "4", "--n", "8"],
                                  ["table", "2", "--n", "2", "--n", "4"]])
def test_table_csv_fields_equal_the_json_values(argv, capsys):
    # Table 1 has no exact values and so no errors or rates; table 2 at n=2
    # has no stored values, and its n=2 -> 4 step has a missing rate.
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    expected = json.loads(out)["rows"]
    assert len(rows) == len(expected) == 12
    for row, want in zip(rows, expected):
        for key in ("eigenvalue", "rel_diff", "error", "rate", "monotone"):
            assert csv_holds(row[key], want[key]), (key, row[key], want[key])


@pytest.mark.parametrize("argv", [["rates", "--n", "2", "--n", "4"],
                                  ["rates", "--n", "4", "--n", "8", "--n", "12",
                                   "--bc", "clamped"]])
def test_rates_csv_fields_equal_the_json_values(argv, capsys):
    # Both carry a missing rate: the sixth simply supported value at n=2
    # lies above its exact value, and the extrapolated last step has none.
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0
    expected = [(entry["reference"], rate) for entry in json.loads(out)["entries"]
                for rate in entry["rates"]]
    assert None in [rate for _, rate in expected]
    assert len(rows) == len(expected)
    for (_, reference, _, _, rate), (want_reference, want_rate) in zip(rows, expected):
        assert csv_holds(reference, want_reference)
        assert csv_holds(rate, want_rate)


def test_solve_accepts_repeated_n(capsys):
    code, out, _ = run_cli(
        ["solve", "--n", "2", "--n", "4", "--k", "1", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3


def test_solve_rejects_oversized_3d(capsys):
    code, _, err = run_cli(["solve", "--dim", "3", "--n", "32"], capsys)
    assert code == 3
    assert "n > 16" in err or "n=16" in err


def test_solve_rejects_k_beyond_free_dofs(capsys):
    code, _, err = run_cli(["solve", "--n", "1", "--bc", "clamped"], capsys)
    assert code == 3
    assert "free DOFs" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_csv_reproduces_stored_values(capsys):
    code, out, _ = run_cli(
        ["table", "2", "--n", "4", "--n", "8", "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 12
    for row in rows:
        assert float(row["rel_diff"]) < 1e-3
        # Discrete values stay below the continuous ones.
        assert float(row["error"]) > 0.0
    # Rates appear once a previous refinement exists.
    n8 = [row for row in rows if row["n"] == "8"]
    assert all(row["rate"] != "" for row in n8)
    assert all(row["monotone"] == "yes" for row in n8)


def test_table_text_format(capsys):
    code, out, _ = run_cli(["table", "1", "--n", "4", "--n", "8"], capsys)
    assert code == 0
    assert "benchmark table 1" in out
    assert "1075.8563" in out
    assert "1223.1076" in out  # stored reference at n=8, index 1


def test_table_reports_an_undefined_rate_as_missing(capsys):
    # At n=2 the sixth simply supported eigenvalue, 11520, lies above the
    # exact 100 pi^4, so the n=2 -> 4 step has no order.
    argv = ["table", "2", "--n", "2", "--n", "4"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [row["rate"] is None for row in rows[6:]] == [False] * 5 + [True]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1].split()[-2:] == ["---", "NO"]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[-1].split(",")[-2:] == ["", "no"]


def test_table_rejects_unsorted_ladder(capsys):
    code, _, err = run_cli(["table", "1", "--n", "8", "--n", "4"], capsys)
    assert code == 3
    assert "increasing" in err


def test_table_3d_guard(capsys):
    code, _, err = run_cli(["table", "3", "--n", "32"], capsys)
    assert code == 3
    assert "3D" in err or "n > 16" in err


def test_table_exits_2_when_a_value_drifts_from_the_stored_table(monkeypatch, capsys):
    stored = reference.BENCHMARK_VALUES[1][4]
    monkeypatch.setitem(reference.BENCHMARK_VALUES[1], 4,
                        (stored[0] * 1.01, *stored[1:]))
    code, out, err = run_cli(["table", "1", "--n", "4", "--format", "json"], capsys)
    assert code == 2
    assert json.loads(out)["rows"][0]["rel_diff"] > 1e-3
    assert "n=4 index=1" in err


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def test_rates_simply_supported_json(capsys):
    code, out, _ = run_cli(
        ["rates", "--dim", "2", "--n", "4", "--n", "8", "--n", "12",
         "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    first = payload["entries"][0]
    assert first["reference_kind"] == "exact"
    assert len(first["rates"]) == 2
    assert first["rates"][0] == pytest.approx(1.816267, abs=1e-3)
    assert first["rates"][1] == pytest.approx(1.937758, abs=1e-3)


def test_rates_report_an_undefined_rate_as_missing(capsys):
    argv = ["rates", "--dim", "2", "--n", "2", "--n", "4"]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    entries = json.loads(out)["entries"]
    assert [entry["rates"][0] is None for entry in entries] == [False] * 5 + [True]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.splitlines()[-1].split() == ["6", "9740.9091", "---"]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[-1].endswith(",2->4,")


def test_rates_clamped_requires_richardson(capsys):
    # Clamped rates are measured against an extrapolated reference, which
    # needs three distinct cell counts.
    code, _, err = run_cli(
        ["rates", "--bc", "clamped", "--n", "4", "--n", "8"], capsys
    )
    assert code == 3
    assert "three distinct cell counts" in err


def test_rates_clamped_with_richardson(capsys):
    # --bc clamped alone picks the extrapolated reference.
    code, out, _ = run_cli(
        ["rates", "--bc", "clamped", "--n", "4", "--n", "8", "--n", "16",
         "--k", "1"], capsys
    )
    assert code == 0
    assert "extrapolated" in out
    # The reference comes from n=8 and 16, so the 8->16 order is assumed,
    # not measured, and prints as undefined; the 4->8 order is measured.
    first, last = out.splitlines()[-1].split()[-2:]
    assert last == "---"
    assert float(first) > 0.0


def test_rates_simply_supported_rejects_richardson(capsys):
    # The reference kind follows --bc; the removed --richardson flag is an
    # unknown option, which fails in the parser, for either condition.
    for bc in ("simply-supported", "clamped"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", "--bc", bc, "--richardson", "--n", "4", "--n", "8",
                      "--n", "12"])
        out, err = capsys.readouterr()
        assert exc.value.code == 3
        assert out == ""
        assert "unrecognized arguments: --richardson" in err


def test_rates_need_two_meshes(capsys):
    code, _, err = run_cli(["rates", "--n", "4"], capsys)
    assert code == 3
    assert "two" in err


@pytest.mark.parametrize("dim,multiplier", [(2, 169), (3, 81)])
def test_rates_k_beyond_six_takes_the_closed_form(dim, multiplier, capsys):
    # The seventh sine mode: (2, 3) and (3, 2) share 13^2 pi^4 with no other
    # in 2D; in 3D it is the third copy of 81 pi^4, after the two of table 4.
    code, out, err = run_cli(
        ["rates", "--dim", str(dim), "--bc", "simply-supported", "--n", "4", "--n", "8",
         "--k", "7", "--format", "json"], capsys
    )
    assert (code, err) == (0, "")
    entry = json.loads(out)["entries"][6]
    assert entry["reference"] == multiplier * math.pi ** 4
    assert entry["reference_kind"] == "exact"
    assert all(value < entry["reference"] for value in entry["eigenvalues"])


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "0"],
    ["table", "1", "--n", "0"],
    ["rates", "--n", "0", "--n", "4"],
    ["rates", "--dim", "3", "--n", "8", "--n", "32"],
    ["verify", "lemma2d", "--quad-order", "8"],
    ["rates", "--bc", "clamped", "--n", "4", "--n", "8", "--n", "4"],
    ["solve", "--dim", "3", "--n", "17"],
    ["solve", "--n", "2", "--bc", "simply-supported", "--k", "12", "--solver", "shift-invert"],
])
def test_bad_sizes_and_orders_are_usage_errors(argv, capsys):
    # An unknown option fails in the parser, which exits instead of returning.
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 3
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_help_names_every_suite(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--help"])
    assert excinfo.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert cli.SUITE_NAMES == tuple(SUITES)
    assert f"one of {', '.join(SUITES)}, or all" in out


def test_unknown_suite_is_a_usage_error(capsys):
    code, out, err = run_cli(["verify", "lemma4d"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("rectmorley: error:") and "lemma4d" in err
    assert len(err.strip().splitlines()) == 1


def test_verify_bubbles_json(capsys):
    code, out, _ = run_cli(["verify", "bubbles", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    report = payload["reports"][0]
    assert report["suite"] == "bubbles"
    deviations = [c for c in report["checks"] if c["deviation"]]
    assert deviations, "published-form deviations must be reported"


@pytest.mark.parametrize("suite", [*SUITES, "all"])
def test_negative_seed_is_a_usage_error(suite, capsys):
    code, out, err = run_cli(["verify", suite, "--seed", "-1"], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("rectmorley: error:") and "--seed" in err


def test_verify_lemma2d_and_lemma3d_subcommands(capsys):
    code, out, _ = run_cli(["verify", "lemma2d", "--seed", "7"], capsys)
    assert code == 0
    assert "worked-case" in out
    assert "overall: PASS" in out
    code3, out3, _ = run_cli(["verify", "lemma3d", "--seed", "7"], capsys)
    assert code3 == 0
    assert "excluded-family" in out3


def test_verify_identity_suite(capsys):
    code, out, _ = run_cli(["verify", "identity37"], capsys)
    assert code == 0
    assert "sign-flip" in out
    assert "overall: PASS" in out


def test_verify_identity_suite_json_serializes(capsys):
    # checks built from numpy scalars must still produce plain-JSON payloads
    code, out, _ = run_cli(["verify", "identity37", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(type(c["passed"]) is bool
               for r in payload["reports"] for c in r["checks"])


def test_verify_commuting(capsys):
    code, out, _ = run_cli(["verify", "commuting"], capsys)
    assert code == 0
    assert "overall: PASS" in out


def test_verify_interpolation_reports_every_probed_order(capsys):
    from rectmorley.functions import unit_box_eigenfunction
    from rectmorley.operators import interpolation_convergence_probe
    from rectmorley.polynomial import Polynomial

    code, out, _ = run_cli(["verify", "interpolation"], capsys)
    assert code == 0
    assert out.count("[PASS]") == 18
    assert "overall: PASS" in out

    code, out, _ = run_cli(["verify", "interpolation", "--format", "json"], capsys)
    assert code == 0
    (report,) = json.loads(out)["reports"]
    checks = report["checks"]
    assert len(checks) == 18 and all(c["passed"] for c in checks)
    expected = []
    for dim, ladder in ((2, (4, 8, 16)), (3, (2, 4, 8))):
        cubic = (2, 1) + (0,) * (dim - 2)
        quartic = (4,) + (0,) * (dim - 1)
        for f in (unit_box_eigenfunction((1,) * dim),
                  Polynomial.monomial(dim, cubic), Polynomial.monomial(dim, quartic)):
            orders = interpolation_convergence_probe(f, dim, ladder).orders
            expected += [orders[l] for l in (0, 1, 2)]
    assert [c["lhs"] for c in checks] == expected
    assert [c["rhs"] for c in checks] == [3, 2, 1, 3, 2, 1, 4, 3, 2] * 2
    assert {c["tol"] for c in checks} == {0.3}


def _expected_verify_all_records():
    """(suite, record name) of `verify all`, in order, as the dict-based
    polynomials reported them."""
    pairs2, pairs3 = ["0,1", "1,0"], ["0,1", "0,2", "1,0", "1,2", "2,0", "2,1"]
    bubbles = []
    for dim, ordered, unordered in ((2, pairs2, ["0,1"]), (3, pairs3, ["0,1", "0,2", "1,2"])):
        bubbles += ([f"{dim}d/count"] + [f"{dim}d/phi({p})/max-dof" for p in ordered]
                    + [f"{dim}d/psi({i})/max-dof" for i in range(dim)]
                    + [f"{dim}d/p({p})/max-dof" for p in unordered]
                    + [f"{dim}d/q({p})/max-dof" for p in ordered]
                    + [f"{dim}d/p-published({p})/max-dof" for p in unordered])
    names = {
        "bubbles": bubbles,
        "refined-identity-2d": ["2d/random-pairs/max-scaled-residual",
                                "2d/worked-case/lhs-value", "2d/worked-case/identity"],
        "refined-identity-3d": ["3d/random-pairs/max-scaled-residual",
                                "3d/excluded-family/lhs-value",
                                "3d/excluded-family/identity-gap"],
        "commuting": [f"{dim}d/degree-{k}/max-monomial" for dim in (2, 3) for k in range(7)],
        "eigenvalue-error-identity": [f"2d-ss/n={n}/{kind}" for n in (4, 8)
                                      for kind in ("residual", "sign-flip-residual")],
        "interpolation-convergence": [f"{dim}d/{f}/{norm}-order" for dim in (2, 3)
                                      for f in ("sine", "mixed-cubic", "pure-quartic")
                                      for norm in ("L2", "H1", "H2")],
    }
    return [(suite, name) for suite, listed in names.items() for name in listed]


def test_verify_all_json_is_pinned_and_deterministic(capsys):
    code, first, _ = run_cli(["verify", "all", "--format", "json"], capsys)
    code_again, second, _ = run_cli(["verify", "all", "--format", "json"], capsys)
    assert code == code_again == 0
    assert first == second  # bit for bit
    checks = [(report["suite"], check) for report in json.loads(first)["reports"]
              for check in report["checks"]]
    assert len(checks) == 73
    assert [(suite, c["name"]) for suite, c in checks] == _expected_verify_all_records()
    assert all(c["passed"] for _, c in checks)
    assert {c["name"] for _, c in checks if c["deviation"]} == {
        "2d/p-published(0,1)/max-dof", "3d/p-published(0,1)/max-dof",
        "3d/p-published(0,2)/max-dof", "3d/p-published(1,2)/max-dof",
        "3d/excluded-family/identity-gap"}
    by_name = {c["name"]: c for _, c in checks}
    assert by_name["2d/worked-case/lhs-value"]["lhs"] == pytest.approx(16.0, abs=1e-12)
    assert by_name["3d/excluded-family/lhs-value"]["lhs"] == pytest.approx(-32.0 / 3.0,
                                                                            abs=1e-12)


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_missing_required_argument_exits_3():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve"])
    assert excinfo.value.code == 3


def test_one_parser_serves_every_call_without_sharing_lists(monkeypatch, capsys):
    # main builds its parser once per process; each parse still makes its
    # own --n list, and a usage error after a good call still exits 3.
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "solve",
                        lambda args: seen.append(args.n) or cli.Output({}, []))
    assert cli.main(["solve", "--n", "4", "--n", "8"]) == 0
    assert cli.main(["solve", "--n", "16"]) == 0
    assert seen == [[4, 8], [16]] and seen[0] is not seen[1]
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["solve", "--n", "four"])
    assert excinfo.value.code == 3
    assert "invalid int value" in capsys.readouterr().err
    assert cli.main(["solve", "--n", "32"]) == 0
    assert seen[-1] == [32]


def test_unknown_command_exits_3():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["spectrum"])
    assert excinfo.value.code == 3


@pytest.mark.parametrize("argv", [["table", "1"], ["rates", "--n", "4", "--n", "8"]])
def test_only_solve_takes_a_solver_option(argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv + ["--solver", "dense"])
    assert excinfo.value.code == 3


def test_every_export_resolves_through_the_lazy_loader():
    for name in rectmorley.__all__:
        assert rectmorley.__getattr__(name) is not None


@pytest.mark.parametrize("argv,fmt", [
    (argv, fmt)
    for argv, formats in ((["solve", "--n", "2", "--k", "1"], ("text", "csv", "json")),
                          (["table", "2", "--n", "2", "--n", "4"], ("text", "csv", "json")),
                          (["rates", "--n", "2", "--n", "4"], ("text", "csv", "json")),
                          (["verify", "lemma2d"], ("text", "json")))
    for fmt in formats], ids=lambda value: value if isinstance(value, str) else value[0])
def test_out_flag_writes_file(argv, fmt, tmp_path, capsys):
    # The file holds what stdout prints without --out, which ends in one
    # newline; stdout then holds only the wrote line.
    argv = argv + ["--format", fmt]
    code, printed, _ = run_cli(argv, capsys)
    assert code == 0
    assert printed.endswith("\n") and not printed.endswith("\n\n")
    target = tmp_path / f"result.{fmt}"
    code, out, err = run_cli(argv + ["--out", str(target)], capsys)
    assert (code, out, err) == (0, f"wrote {target}\n", "")
    assert target.read_bytes() == printed.encode("utf-8")


def test_out_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    # A path two levels under a file fails at its parent, as open() does.
    for target, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                           (tmp_path / "file" / "x.json", "Not a directory"),
                           (tmp_path / "file" / "sub" / "x.json", "Not a directory")):
        code, out, err = run_cli(
            ["solve", "--n", "2", "--k", "1", "--format", "json",
             "--out", str(target)], capsys
        )
        assert code == 3
        assert out == ""
        assert err.startswith("rectmorley: error:") and str(target) in err
        assert reason in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--n", "4"],
    ["table", "3"],
    ["rates", "--n", "4", "--n", "8"],
    ["verify", "all"],
])
def test_unwritable_out_fails_before_any_work(argv, tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "solve_problem", must_not_run)
    monkeypatch.setattr("rectmorley.operators.SUITES",
                        {name: must_not_run for name in SUITES})
    for target, reason in ((tmp_path / "missing" / "x.out", "No such file or directory"),
                           (tmp_path, "Is a directory")):
        code, out, err = run_cli(argv + ["--out", str(target)], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("rectmorley: error:") and str(target) in err
        assert reason in err
        assert len(err.strip().splitlines()) == 1


def test_threads_env_validation(monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "abc")
    code, _, err = run_cli(["solve", "--n", "2", "--k", "1"], capsys)
    assert code == 3
    assert cli.THREADS_ENV in err


def test_threads_env_propagates(monkeypatch, capsys):
    monkeypatch.setenv(cli.THREADS_ENV, "2")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code, _, _ = run_cli(["solve", "--n", "2", "--k", "1"], capsys)
    assert code == 0
    import os

    assert os.environ["OMP_NUM_THREADS"] == "2"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
def test_threads_env_caps_the_blas_pool_of_a_fresh_process():
    # The cap has to be set before numpy loads, which importing the CLI must
    # not do.  A dense solve starts the BLAS pool; count the threads after it.
    script = ("import os\n"
              "from rectmorley.cli import main\n"
              "code = main(['solve', '--n', '16', '--k', '1', '--solver', 'dense'])\n"
              "print(code, len(os.listdir('/proc/self/task')))\n")
    env = {key: value for key, value in child_env().items()
           if not key.endswith("_NUM_THREADS")}
    env[cli.THREADS_ENV] = "1"
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "1"]


def test_importing_assembly_does_not_load_the_verification_module():
    script = ("import sys\n"
              "import rectmorley.assembly\n"
              "print('rectmorley.operators' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_solve_does_not_load_the_verification_module():
    script = ("import sys\n"
              "from rectmorley.cli import main\n"
              "code = main(['solve', '--n', '2', '--k', '1'])\n"
              "print(code, 'rectmorley.operators' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_closed_pipe_ends_without_a_traceback():
    # 200 small solves print more than a pipe buffer holds, so the writer is
    # still writing when the reader closes the pipe after the first line.
    args = [sys.executable, "-m", "rectmorley", "solve", "--k", "1",
            "--format", "json", *(["--n", "2"] * 200)]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env())
    assert proc.stdout.readline().strip() == b"{"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert err == b""


def test_repeated_runs_are_identical(capsys):
    # The symbol's route: n=4 and 5 as one block, n=32 and 64 as parity blocks.
    args = ["solve", "--n", "4", "--n", "5", "--n", "32", "--n", "64",
            "--bc", "simply-supported", "--format", "json"]
    code, first, _ = run_cli(args, capsys)
    assert code == 0
    _, second, _ = run_cli(args, capsys)
    assert first == second
    runs = json.loads(first)["runs"]
    assert [run["method"] for run in runs] == ["symbol"] * 4
    assert [len(run["metadata"]["blocks"]) for run in runs] == [1, 1, 3, 3]


def test_repeated_processes_print_identical_output():
    # n=4 is solved as one block, n=8 as parity blocks.
    args = [sys.executable, "-m", "rectmorley", "solve", "--dim", "3", "--n", "4",
            "--n", "8", "--bc", "simply-supported", "--format", "json"]
    first, second = (subprocess.run(args, capture_output=True, check=True,
                                    env=child_env()).stdout
                     for _ in range(2))
    runs = json.loads(first)["runs"]
    assert [len(run["metadata"]["blocks"]) for run in runs] == [1, 4]
    assert all(run["metadata"]["converged"] for run in runs)
    assert first == second


def test_repeated_processes_print_identical_clamped_completions():
    # 3D clamped n=5 is one block, and k=6 cuts its triple: the count
    # closes it at 7.
    args = [sys.executable, "-m", "rectmorley", "solve", "--dim", "3", "--n", "5",
            "--format", "json"]
    first, second = (subprocess.run(args, capture_output=True, check=True,
                                    env=child_env()).stdout
                     for _ in range(2))
    report = json.loads(first)
    (run,) = report["runs"]
    (block,) = run["metadata"]["blocks"]
    assert report["bc"] == "clamped" and run["metadata"]["converged"]
    assert block["count_below_tau"] == 7
    assert first == second


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rectmorley", "solve", "--n", "2", "--k", "1"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
