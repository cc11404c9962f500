"""Command line driver: solve, reproduce benchmark tables, rates, verify.

Each command returns one Output: its JSON payload, text lines, CSV rows,
exit code and stderr line.  main renders it once, in the requested format,
to stdout or --out, and then prints the stderr line, if any.

Exit codes: 0 success, 1 solver failure, 2 verification failure (a failed
suite, or a table eigenvalue off its stored value by more than
reference.STORED_REL_TOL), 3 bad arguments.  The only environment variable
honored is RECTMORLEY_THREADS, which caps the BLAS/OpenMP thread pools
before the numeric stack loads: this module and the package import no
numpy until main() has set the caps.  Output is deterministic for fixed
inputs.  A reader that closes stdout early (`| head`) gets no traceback: the
rest of the output is dropped and the exit code is the command's own.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_VERIFICATION_FAILURE = 2
EXIT_BAD_ARGS = 3

THREADS_ENV = "RECTMORLEY_THREADS"

DEFAULT_K = 6

# The keys of operators.SUITES for `verify --help`, so that the parser does
# not import the verification module; `verify` checks the name it is given.
SUITE_NAMES = ("bubbles", "lemma2d", "lemma3d", "commuting", "identity37", "interpolation")


class UsageError(Exception):
    """Configuration problem detected after argument parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARGS, f"{self.prog}: error: {message}\n")


def _configure_threads():
    raw = os.environ.get(THREADS_ENV)
    if raw is None:
        return
    try:
        count = int(raw)
        if count < 1:
            raise ValueError
    except ValueError:
        raise UsageError(
            f"{THREADS_ENV} must be a positive integer, got {raw!r}"
        ) from None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(count)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and each parse makes its own namespace and lists."""
    parser = _Parser(
        prog="rectmorley",
        description="Biharmonic eigenvalue computations with rectangular "
                    "Morley elements on the unit box.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="compute the smallest eigenvalues")
    solve.add_argument("--dim", type=int, choices=(2, 3), default=2)
    solve.add_argument("--n", type=int, action="append", required=True,
                       metavar="N", help="cells per axis (repeatable)")
    solve.add_argument("--bc", choices=("clamped", "simply-supported"),
                       default="clamped")
    solve.add_argument("--k", type=int, default=DEFAULT_K)
    solve.add_argument("--solver", choices=("auto", "dense"), default="auto",
                       help="eigensolver of clamped problems; simply supported ones "
                            "take their eigenpairs from the Fourier symbol")
    solve.add_argument("--format", choices=("text", "csv", "json"), default="text")
    solve.add_argument("--out", metavar="PATH")

    table = sub.add_parser("table", help="reproduce a benchmark eigenvalue table")
    table.add_argument("table_id", type=int, choices=(1, 2, 3, 4))
    table.add_argument("--n", type=int, action="append", metavar="N",
                       help="override the refinement ladder (repeatable)")
    table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    table.add_argument("--out", metavar="PATH")

    rates = sub.add_parser("rates", help="observed convergence orders")
    rates.add_argument("--dim", type=int, choices=(2, 3), default=2)
    rates.add_argument("--n", type=int, action="append", required=True,
                       metavar="N", help="cells per axis (repeatable, need >= 2)")
    rates.add_argument("--bc", choices=("clamped", "simply-supported"),
                       default="simply-supported")
    rates.add_argument("--k", type=int, default=DEFAULT_K)
    rates.add_argument("--format", choices=("text", "csv", "json"), default="text")
    rates.add_argument("--out", metavar="PATH")

    verify = sub.add_parser("verify", help="run structural verification suites")
    verify.add_argument("suite", help=f"one of {', '.join(SUITE_NAMES)}, or all")
    verify.add_argument("--seed", type=int, default=None,
                        help="seed for the randomized identity suites")
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.add_argument("--out", metavar="PATH")

    return parser


# ---------------------------------------------------------------------------
# shared solving helpers
# ---------------------------------------------------------------------------

# Problems with fewer free DOFs than this, per dimension, are solved as one
# block: below it, setting up the half-box blocks costs more than their
# smaller solves save.  Split/one-block time on the auto route (min of 9
# alternating runs in process, one BLAS thread, 2 vCPUs, range over two
# sweeps; free DOFs clamped/simply supported, ratio clamped/simply
# supported): 2D n=4 (33/49) 1.59-1.62/1.42, n=8 (161/193) 1.27-1.31/
# 1.26-1.29, n=12 (385/433) 1.13-1.14/1.17-1.20, n=16 (705/769)
# 1.01-1.03/1.06-1.08, n=18 (901/973) 0.95-0.96/1.01, n=20 (1121/1201)
# 0.93-0.96/1.00-1.01, n=24 (1633/1729) 0.87-0.90/0.91; so 950 runs
# clamped n=18 as one block and simply supported n=18 split, each about
# 5% off its faster choice.  3D: n=4 (171/267) 1.20-1.21/1.14-1.20, n=6
# (665/881) 0.61-0.62/0.88-1.01, so any value from 268 to 665 splits the
# same rungs.  The split also sets the parity labels.
SPLIT_MIN_ORDER = {2: 950, 3: 400}


@dataclass
class Solution:
    """The k smallest eigenvalues of one problem, merged over its parity blocks.

    parities[i] labels eigenvalue i with the reflection parity of its block,
    one letter per axis ('e' even, 'o' odd under x_a -> 1 - x_a), or None
    when the problem was solved as one block.  residuals[i] is the relative
    residual of eigenvalue i in the pencil of its block's own DOF map.  No
    eigenvectors are kept: a block's live on the half box, in that block's
    numbering, and no caller reads them.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    parities: list
    method: str
    metadata: dict

    @property
    def converged(self) -> bool:
        return self.metadata["converged"]

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "parities": list(self.parities),
            "residuals": [float(r) for r in self.residuals],
            "method": self.method,
            "metadata": self.metadata,
        }


def solve_problem(dim: int, n: int, bc: str, k: int = DEFAULT_K,
                  solver: str = "auto") -> Solution:
    """Solve one configuration, with a certificate that no eigenvalue below
    the k-th was skipped.

    Each mid-plane reflection x_a -> 1 - x_a commutes with the pencil, so for
    even n the problem splits into 2^dim parity blocks: the Morley problem
    on the half box [0, 1/2]^dim with the given bc on the outer faces and an
    even (facets) or odd (vertices) condition on the mid-plane faces.  An
    axis permutation maps one block onto another with as many odd axes, so
    one representative per count j of odd axes is taken, in decreasing
    multiplicity (3D oee, ooe, eee, ooo; 2D oe, ee, oo), and its eigenvalues
    count C(dim, j) times.  Odd n, and problems with fewer than
    SPLIT_MIN_ORDER[dim] free DOFs, are one block on the full box.

    Every block holds each of its eigenpairs below the final
    tau = (k-th merged eigenvalue) (1 + REL_GAP); metadata["k_closed"]
    counts them with multiplicity, above k when k cuts a cluster.

    On every route each block numbers its own DOFs once, in id order
    (build_dof_map with its parity's faces).  A simply supported problem,
    and a clamped one on the auto route, assemble nothing, and need no
    factor and no eigensolver; each block takes its eigenvectors from
    symbol.modes, checks them by their residuals in its own pencil, applied
    cell by cell (assembly.cell_operator; eigensolve.solved), and reports
    method 'symbol'.  A simply supported problem's exact spectra of its
    parity classes (symbol.block_spectra) give the final tau; each block
    takes its class's pairs below it, and its count is the number of those
    pairs, None (not converged) when its order is not its class's
    eigenvalue count.  Every clamped block on the auto route takes its pairs
    from the capacitance matrix of its class (capacitance.Capacitance.
    pairs), smooths their vectors with one damped Jacobi step (eigensolve.
    smoothed: it damps the rounding noise of the mode sum) and reports their
    Rayleigh-Ritz values in its pencil, M-normalized (eigensolve.
    rayleigh_ritz); it is counted below its tau by the same matrix
    (Capacitance.count).  A block the symbol cannot number gets no pairs
    and count None.

    Only `solver` 'dense' assembles: each clamped block assembles the pencil
    of its own numbering (assembly.assemble) and solves it with
    solve_smallest, which takes its whole spectrum from LAPACK and counts
    it there.  That route uses neither the symbol nor the capacitance
    matrix, so it checks both.

    Every clamped block is solved below the tau of the blocks merged before
    it; the first, with no tau yet, for k1 = ceil(k / multiplicity) pairs
    (fewer if it is smaller), whose copies give k merged values, certified
    at its own lambda_k1 (1 + REL_GAP).  Both are at or above the final tau.

    The k smallest merged eigenvalues are returned in ascending order (a
    stable sort), with no full-space eigenvectors.  Every route reports the
    same metadata keys: order (free DOFs of the full problem), k, the final
    tau, k_closed, converged (every block converged and passed its count),
    and blocks, in solve order.
    """
    import itertools
    import math
    from collections import Counter

    import numpy as np

    from . import capacitance, eigensolve, symbol
    from .assembly import (BC_SIMPLY_SUPPORTED, PARITY_EVEN, PARITY_ODD, assemble, build_dof_map,
                           cell_diagonal, cell_operator, dof_coordinates, element_matrices,
                           free_dof_count)
    from .element import build_reference_element
    from .mesh import build_mesh

    if solver not in ("auto", eigensolve.METHOD_DENSE):
        raise ValueError(f"unknown solver method {solver!r}")
    mesh = build_mesh(dim, n)
    order = free_dof_count(mesh, bc)
    if not 1 <= k <= order:
        raise UsageError(f"k={k} out of range for this mesh ({order} free DOFs)")
    if n % 2 == 0 and order >= SPLIT_MIN_ORDER[dim]:
        mesh = build_mesh(dim, n // 2, domain=((0.0,) * dim, (0.5,) * dim))
        parities = ["".join(p) for p in itertools.product("eo", repeat=dim)]
    else:
        parities = [None]
    element = build_reference_element(dim)

    def block_of(parity):
        """The visited representative of parity's class: its odd axes first."""
        return None if parity is None else "".join(sorted(parity, reverse=True))

    multiplicity = Counter(block_of(p) for p in parities)
    # Largest classes first, so that the first block's copies alone give k
    # values; the sort is stable, so ties keep their count of odd axes.
    representatives = sorted(multiplicity, key=multiplicity.get, reverse=True)
    # Every problem on the auto route takes its pairs from the symbol, with
    # the spectra of the simply supported classes; the dense route solves
    # an assembled pencil.
    from_symbol = bc == BC_SIMPLY_SUPPORTED or solver == "auto"
    if from_symbol:
        spectra = symbol.block_spectra(dim, n, representatives)
        local_matrices = element_matrices(element, mesh.half_width)

    def slice_tau():
        """(1 + REL_GAP) times the k-th merged value, inf if fewer: of the
        symbol's spectra of a simply supported problem, else of the blocks
        solved."""
        blocks = {p: v for p, (v, *_) in spectra.items()} if bc == BC_SIMPLY_SUPPORTED \
            else {p: r.eigenvalues for p, r in solved.items()}
        values = np.concatenate([np.empty(0)] + [np.repeat(v, multiplicity[p])
                                                 for p, v in blocks.items()])
        return eigensolve.tau_after(values, k)

    # solve_smallest is looked up at call time, so that a caller who swaps
    # the module attribute (a tracer) sees every block solve.
    def solve_block(parity):
        """The certified result of one representative, solved below the tau
        of the blocks solved before it.  Its operators, vectors and
        capacitance matrix are freed when it returns, before the next block
        builds its own."""
        faces = None if parity is None else [
            side for p in parity for side in (bc, PARITY_ODD if p == "o" else PARITY_EVEN)]
        tau = slice_tau()
        own = build_dof_map(mesh, bc, faces)
        block_order = own.num_free
        if from_symbol:
            a_op, m_op = (cell_operator(own, local) for local in local_matrices)
            values, waves, vectors = spectra[parity]
        owed = dict(tau=tau) if tau < np.inf else dict(
            k=min(math.ceil(k / multiplicity[parity]), block_order))
        if bc == BC_SIMPLY_SUPPORTED:
            below = int(np.searchsorted(values, tau))
            modes = symbol.modes(dof_coordinates(own), n, waves[:below], vectors[:below],
                                 np.eye(below))
            modes /= np.sqrt(np.einsum("ij,ij->j", modes, m_op @ modes))
            result = eigensolve.solved(a_op, m_op, symbol.METHOD_SYMBOL, values[:below], modes)
            return eigensolve.certified(result, tau,
                                        below if len(values) == block_order else None)
        elif from_symbol:
            try:
                matrix = capacitance.Capacitance(dim, n, parity, spectra[parity], block_order)
                roots, coefficients = matrix.pairs(**owed)
            except ValueError:
                # The class does not number the block: no pairs and no count.
                matrix, roots, coefficients = None, np.empty(0), np.empty((len(values), 0))
            basis = eigensolve.smoothed(
                a_op, m_op, cell_diagonal(own, local_matrices[0]), roots,
                symbol.modes(dof_coordinates(own), n, waves, vectors, coefficients))
            result = eigensolve.solved(a_op, m_op, symbol.METHOD_SYMBOL,
                                       *eigensolve.rayleigh_ritz(a_op, m_op, basis))
            if "k" in owed:
                tau = eigensolve.tau_after(result.eigenvalues, owed["k"])
            return eigensolve.certified(result, tau, None if matrix is None else
                                        eigensolve.count_owed(result, tau, matrix.count))
        else:
            return eigensolve.solve_smallest(*assemble(mesh, own, element), **owed)

    solved = {}
    for parity in representatives:
        solved[parity] = solve_block(parity)
    tau = slice_tau()

    merged = [(lam, res, parity) for parity in parities
              for lam, res in zip(solved[block_of(parity)].eigenvalues,
                                  solved[block_of(parity)].residuals)]
    keep = np.argsort([lam for lam, _, _ in merged], kind="stable")[:k]
    eigenvalues, residuals, labels = (np.array([merged[i][j] for i in keep]) for j in range(3))

    blocks = [{"parity": parity,
               "multiplicity": multiplicity[parity],
               "order": result.metadata["order"],
               "tau": result.metadata["tau"],
               "count_below_tau": result.metadata["count_below_tau"],
               "converged": result.converged}
              for parity, result in solved.items()]
    metadata = {"order": order, "k": k, "tau": float(tau),
                "k_closed": sum(multiplicity[p] * int(np.count_nonzero(r.eigenvalues < tau))
                                for p, r in solved.items()),
                "converged": all(b["converged"] for b in blocks),
                "blocks": blocks}
    method = "+".join(sorted({r.method for r in solved.values()}))
    return Solution(eigenvalues, residuals, labels.tolist(), method, metadata)


def _check_ladder(dim: int, n_values):
    """Every cell count must be positive, and at most MAX_CELLS_3D in 3D."""
    from .reference import MAX_CELLS_3D

    not_positive = [n for n in n_values if n < 1]
    if not_positive:
        raise UsageError(f"cell counts must be positive, got {not_positive}")
    if dim == 3:
        too_big = [n for n in n_values if n > MAX_CELLS_3D]
        if too_big:
            raise UsageError(
                f"3D runs with n > {MAX_CELLS_3D} cells per axis are rejected "
                f"(requested {too_big}); the 3D ladder stops at n={MAX_CELLS_3D}"
            )


def _check_out(out_path):
    """Fail before any work when --out is a directory or its directory cannot
    take the file."""
    if not out_path:
        return
    parent = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path):
        reason = errno.EISDIR
    elif not os.path.isdir(parent):
        # The OS's errno: ENOENT if it is missing, ENOTDIR through a file.
        try:
            os.stat(parent)
            reason = errno.ENOTDIR
        except OSError as error:
            reason = error.errno
    elif not os.access(parent, os.W_OK | os.X_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write --out {out_path}: {os.strerror(reason)}")


def _emit(text: str, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as stream:
                stream.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None
        print(f"wrote {out_path}")
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): send the rest, and the flush
        # at exit, to the null device and keep the command's exit code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _csv_cell(value) -> str:
    """One CSV field: None is empty, a bool yes/no, an int its digits, a
    float its shortest round-trip repr, and a str itself."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return value


def _text_cell(value, spec: str) -> str:
    """value formatted by spec, or '---' for None."""
    return "---" if value is None else format(value, spec)


@dataclass
class Output:
    """What one command produced, before main renders it in the requested
    format: the JSON payload, the text lines, the CSV header and rows (None
    for a command without CSV), the exit code, and a line for stderr."""

    payload: dict
    text: list
    csv: tuple = None
    code: int = EXIT_OK
    stderr: str = None

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.payload, indent=2, sort_keys=True)
        if fmt == "csv":
            header, rows = self.csv
            return "\n".join([",".join(header)] + [",".join(map(_csv_cell, row))
                                                   for row in rows])
        return "\n".join(self.text)


def _solve_rungs(dim: int, ladder, bc: str, k: int, solver: str = "auto"):
    """solve_problem on each rung of a checked ladder: the solutions, their
    eigenvalues as one (rungs, k) array, and whether every rung converged."""
    import numpy as np

    runs = [solve_problem(dim, n, bc, k, solver) for n in ladder]
    return runs, np.array([run.eigenvalues for run in runs]), all(run.converged for run in runs)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> Output:
    _check_ladder(args.dim, args.n)
    solutions, _, converged = _solve_rungs(args.dim, args.n, args.bc, args.k, args.solver)
    runs = list(zip(args.n, solutions))
    text = [f"# solve dim={args.dim} bc={args.bc} k={args.k}"]
    for n, result in runs:
        status = "yes" if result.converged else "NO"
        text.append(f"# n={n} order={result.metadata['order']} method={result.method} "
                    f"converged={status}")
        text += [f"{n:>6} {i + 1:>4} {lam:>16.4f} {res:>12.2e}"
                 for i, (lam, res) in enumerate(zip(result.eigenvalues, result.residuals))]
    return Output(
        {"command": "solve", "dim": args.dim, "bc": args.bc, "k": args.k,
         "runs": [{"n": n, "order": result.metadata["order"], **result.to_json_dict()}
                  for n, result in runs]},
        text,
        (("n", "index", "eigenvalue", "residual", "method"),
         [(n, i + 1, lam, res, result.method) for n, result in runs
          for i, (lam, res) in enumerate(zip(result.eigenvalues, result.residuals))]),
        EXIT_OK if converged else EXIT_SOLVER_FAILURE,
        None if converged else "solver did not converge on at least one run")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _cmd_table(args) -> Output:
    from .reference import (BENCHMARK_CONFIG, BENCHMARK_N, BENCHMARK_VALUES,
                            STORED_REL_TOL, exact_eigenvalues, observed_rates)

    dim, bc = BENCHMARK_CONFIG[args.table_id]
    ladder = tuple(args.n) if args.n else BENCHMARK_N[args.table_id]
    if len(set(ladder)) != len(ladder) or list(ladder) != sorted(ladder):
        raise UsageError(f"cell counts must be strictly increasing, got {list(ladder)}")
    _check_ladder(dim, ladder)
    _, values, converged = _solve_rungs(dim, ladder, bc, DEFAULT_K)

    exact = exact_eigenvalues(dim) if bc == "simply-supported" else None
    # rates[i][r - 1]: the order of eigenvalue i from rung r - 1 to rung r.
    rates = None if exact is None else [observed_rates(values[:, i], lam, ladder)
                                        for i, lam in enumerate(exact)]
    stored = BENCHMARK_VALUES[args.table_id]
    rows = []
    for r, n in enumerate(ladder):
        for i, lam in enumerate(values[r]):
            ref = stored[n][i] if n in stored else None
            rows.append({
                "n": n,
                "index": i + 1,
                "eigenvalue": float(lam),
                "reference": ref,
                "rel_diff": float(abs(lam - ref) / abs(ref)) if ref is not None else None,
                "exact": float(exact[i]) if exact is not None else None,
                "error": float(exact[i] - lam) if exact is not None else None,
                "rate": rates[i][r - 1] if rates is not None and r else None,
                "monotone": bool(lam >= values[r - 1, i]) if r else None,
            })

    text = [f"# benchmark table {args.table_id}: dim={dim} bc={bc}",
            f"{'n':>6} {'idx':>4} {'eigenvalue':>14} {'reference':>14} "
            f"{'exact':>14} {'rate':>10} {'mono':>5}"]
    for row in rows:
        mono = "---" if row["monotone"] is None else ("yes" if row["monotone"] else "NO")
        text.append(f"{row['n']:>6} {row['index']:>4} {row['eigenvalue']:>14.4f} "
                    f"{_text_cell(row['reference'], '.4f'):>14} "
                    f"{_text_cell(row['exact'], '.4f'):>14} "
                    f"{_text_cell(row['rate'], '.6f'):>10} {mono:>5}")
    output = Output({"command": "table", "table": args.table_id, "dim": dim, "bc": bc,
                     "n_values": list(ladder), "rows": rows},
                    text,
                    # The CSV columns are the row keys, in order.
                    (tuple(rows[0]), [tuple(row.values()) for row in rows]))

    drifted = [row for row in rows
               if row["rel_diff"] is not None and row["rel_diff"] > STORED_REL_TOL]
    if not converged:
        output.code = EXIT_SOLVER_FAILURE
    elif drifted:
        worst = max(drifted, key=lambda row: row["rel_diff"])
        output.code = EXIT_VERIFICATION_FAILURE
        output.stderr = (f"{len(drifted)} eigenvalue(s) differ from the stored table by more "
                         f"than {STORED_REL_TOL:g} relative; worst n={worst['n']} "
                         f"index={worst['index']}: {worst['rel_diff']:.3e}")
    return output


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def _cmd_rates(args) -> Output:
    from .reference import exact_eigenvalues, observed_rates, richardson_reference

    n_values = sorted(set(args.n))
    if len(n_values) < 2:
        raise UsageError("rates need at least two distinct cell counts")
    _check_ladder(args.dim, n_values)

    if args.bc == "clamped" and len(n_values) < 3:
        raise UsageError(
            "clamped rates need at least three distinct cell counts: they "
            "have no closed-form eigenvalues, so the reference is "
            "extrapolated from the two finest, whose step has no measured order"
        )
    _, values, converged = _solve_rungs(args.dim, n_values, args.bc, args.k)

    per_index = values.T.tolist()
    if args.bc == "simply-supported":
        refs = exact_eigenvalues(args.dim, args.k).tolist()
        ref_kind = "exact"
    else:
        refs = [richardson_reference(seq, n_values) for seq in per_index]
        ref_kind = "extrapolated"

    entries = []
    for i, (seq, ref) in enumerate(zip(per_index, refs)):
        rates = observed_rates(seq, ref, n_values)
        if ref_kind == "extrapolated":
            # The extrapolation assumes the last step's order; it is not measured.
            rates[-1] = None
        entries.append({"index": i + 1, "reference": ref, "reference_kind": ref_kind,
                        "eigenvalues": seq, "rates": rates})

    steps = [f"{coarse}->{fine}" for coarse, fine in zip(n_values, n_values[1:])]
    text = [f"# observed orders dim={args.dim} bc={args.bc} "
            f"reference={ref_kind} n={','.join(map(str, n_values))}",
            f"{'idx':>4} {'reference':>14}  " + " ".join(f"r({step})" for step in steps)]
    text += [f"{entry['index']:>4} {entry['reference']:>14.4f}  "
             + " ".join(f"{_text_cell(rate, '.6f'):>10}" for rate in entry["rates"])
             for entry in entries]
    return Output(
        {"command": "rates", "dim": args.dim, "bc": args.bc, "n_values": list(n_values),
         "entries": entries},
        text,
        (("index", "reference", "reference_kind", "step", "rate"),
         [(entry["index"], entry["reference"], ref_kind, step, rate)
          for entry in entries for step, rate in zip(steps, entry["rates"])]),
        EXIT_OK if converged else EXIT_SOLVER_FAILURE)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> Output:
    from .operators import DEFAULT_SEED, SUITES

    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    wanted = args.suite
    if wanted != "all" and wanted not in SUITES:
        raise UsageError(f"unknown suite {wanted!r}; choose from {', '.join(SUITES)}, or all")
    names = SUITES if wanted == "all" else (wanted,)
    suites = [SUITES[name](seed) for name in names]
    passed = all(rep.passed for rep in suites)
    return Output(
        {"command": "verify", "suite": wanted, "passed": passed,
         "reports": [rep.to_json_dict() for rep in suites]},
        ["\n\n".join([rep.to_text() for rep in suites]
                      + [f"overall: {'PASS' if passed else 'FAIL'}"])],
        code=EXIT_OK if passed else EXIT_VERIFICATION_FAILURE)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "solve": _cmd_solve,
    "table": _cmd_table,
    "rates": _cmd_rates,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        _configure_threads()
    except UsageError as exc:
        print(f"rectmorley: error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        output = _COMMANDS[args.command](args)
        _emit(output.render(args.format), args.out)
    except UsageError as exc:
        print(f"rectmorley: error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ValueError, ArithmeticError) as exc:
        print(f"rectmorley: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    if output.stderr:
        print(output.stderr, file=sys.stderr)
    return output.code


if __name__ == "__main__":
    sys.exit(main())
