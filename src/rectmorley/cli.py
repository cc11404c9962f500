"""Command line driver: solve, reproduce benchmark tables, rates, verify.

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
# block: below it, setting up the clamped half-box blocks costs more than
# their smaller factors save.  Split/one-block time (min of 7, 2 threads, two
# sweeps; free DOFs): 2D n=14 (533) 1.27-1.31, n=16 (705) 1.12-1.15, n=18
# (901) 1.01-1.02, n=20 (1121) 0.93-0.94, n=22..24 0.82-0.84; 3D n=4 (171)
# 1.01, n=6 (665) 0.56-0.58.  Simply supported problems factor nothing, but
# the split still pays: checking the symbol's modes on the full box instead
# took 2D n=32 7.3 -> 12.8 ms, n=64 22.5 -> 53 ms, 3D n=8 8.2 -> 13.4 ms,
# n=16 26 -> 119 ms (min of 7, one thread); it also sets their parity labels.
SPLIT_MIN_ORDER = {2: 950, 3: 400}


@dataclass
class Solution:
    """The k smallest eigenvalues of one problem, merged over its parity blocks.

    parities[i] labels eigenvalue i with the reflection parity of its block,
    one letter per axis ('e' even, 'o' odd under x_a -> 1 - x_a), or None
    when the problem was solved as one block.  residuals[i] is the relative
    residual of eigenvalue i in its own block's pencil.  No eigenvectors are
    kept: a block's live on the half box, and no caller reads them.
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
    """Assemble and solve one configuration, with a certificate that no
    eigenvalue below the k-th was skipped.

    Each mid-plane reflection x_a -> 1 - x_a commutes with the pencil, so for
    even n the problem splits into 2^dim parity blocks: the Morley problem
    on the half box [0, 1/2]^dim with the given bc on the outer faces and an
    even (facets) or odd (vertices) condition on the mid-plane faces.  The
    half box is numbered and assembled once, with free mid-plane faces, and
    each block is the principal submatrix on its own free DOFs, in that
    shared nested-dissection order.  An axis permutation maps one block onto
    another with as many odd axes, so one representative per count j of odd
    axes is taken, in decreasing multiplicity (3D oee, ooe, eee, ooo; 2D oe,
    ee, oo), and its eigenvalues count C(dim, j) times.  Odd n, and problems
    with fewer than SPLIT_MIN_ORDER[dim] free DOFs, are one block on the
    full box.  Every block holds each of its eigenpairs below the final
    tau = (k-th merged eigenvalue) (1 + REL_GAP); metadata["k_closed"]
    counts them with multiplicity, above k when k cuts a cluster.

    A simply supported problem needs no factor and no eigensolver: the
    exact spectra of its parity classes (symbol.block_spectra) give the
    final tau, and each block takes its class's pairs below it, with
    eigenvectors from symbol.modes checked by their residuals in its own
    pencil (method 'symbol'; `solver` must still be 'auto' or 'dense', but
    is not used).  Its count is the number of those pairs, None (not
    converged) when its order is not its class's eigenvalue count.  A
    clamped problem solves each block once with solve_smallest on the
    `solver` route, below the tau of the blocks merged before it; the first,
    with no tau yet, for k1 = ceil(k / multiplicity) pairs (fewer if it is
    smaller), whose copies give k merged values, certified at its own
    lambda_k1 (1 + REL_GAP).  Both are at or above the final tau.  Each
    block is counted from the spectrum of its simply supported class
    (symbol.clamped_count, from the same block_spectra call), with no factor
    of A - tau M: every factor a clamped solve builds is of A, at shift 0.
    A block the symbol cannot count gets count None (not converged).

    The k smallest merged eigenvalues are returned in ascending order (a
    stable sort), with no full-space eigenvectors.  Every route reports the
    same metadata keys: order (free DOFs of the full problem), k, the final
    tau, k_closed, converged (every block converged and passed its count),
    the work counters summed over the blocks, and blocks, in solve order.
    """
    import itertools
    import math
    from collections import Counter

    import numpy as np

    from . import eigensolve, symbol
    from .assembly import (BC_SIMPLY_SUPPORTED, FACE_FREE, PARITY_EVEN, PARITY_ODD, assemble,
                           build_dof_map, dof_coordinates, free_dof_count, restricted_dofs)
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
        shared_faces = [bc, FACE_FREE] * dim
    else:
        parities, shared_faces = [None], None
    element = build_reference_element(dim)

    def block_of(parity):
        """The visited representative of parity's class: its odd axes first."""
        return None if parity is None else "".join(sorted(parity, reverse=True))

    multiplicity = Counter(block_of(p) for p in parities)
    # Largest classes first, so that the first block's copies alone give k
    # values; the sort is stable, so ties keep their count of odd axes.
    representatives = sorted(multiplicity, key=multiplicity.get, reverse=True)
    # The simply supported classes: a simply supported problem's pairs, and a
    # clamped one's counts.
    spectra = symbol.block_spectra(dim, n, representatives)

    dofmap = build_dof_map(mesh, bc, shared_faces)
    shared = assemble(mesh, dofmap, element)

    def slice_tau():
        """(1 + REL_GAP) times the k-th merged value, inf if fewer: of the
        symbol's spectra of a simply supported problem, else of the blocks
        solved."""
        blocks = {p: v for p, (v, *_) in spectra.items()} if bc == BC_SIMPLY_SUPPORTED \
            else {p: r.eigenvalues for p, r in solved.items()}
        values = np.concatenate([np.empty(0)] + [np.repeat(v, multiplicity[p])
                                                 for p, v in blocks.items()])
        return np.partition(values, k - 1)[k - 1] * (1 + eigensolve.REL_GAP) \
            if len(values) >= k else np.inf

    # solve_smallest is looked up at call time, so that a caller who swaps
    # the module attribute (a tracer) sees every block solve and count.
    solved = {}
    for parity in representatives:
        a_mat, m_mat = shared
        keep = slice(None)
        if parity is not None:
            keep = restricted_dofs(dofmap, [side for p in parity for side in
                                            (bc, PARITY_ODD if p == "o" else PARITY_EVEN)])
            a_mat, m_mat = (mat[keep][:, keep] for mat in shared)
        tau = slice_tau()
        if bc == BC_SIMPLY_SUPPORTED:
            values, waves, vectors = spectra[parity]
            below = int(np.searchsorted(values, tau))
            modes = symbol.modes(dof_coordinates(dofmap)[keep], n, waves[:below],
                                 vectors[:below])
            modes /= np.sqrt(np.einsum("ij,ij->j", modes, m_mat @ modes))
            result = eigensolve.solved(a_mat, m_mat, symbol.METHOD_SYMBOL, values[:below],
                                       modes)
            solved[parity] = eigensolve.certified(
                result, tau, below if len(values) == a_mat.shape[0] else None)
        else:
            owed = dict(tau=tau) if tau < np.inf else dict(
                k=min(math.ceil(k / multiplicity[parity]), a_mat.shape[0]))
            count = functools.partial(symbol.clamped_count, dim, n, parity, spectra[parity],
                                      a_mat.shape[0])
            solved[parity] = eigensolve.solve_smallest(a_mat, m_mat, method=solver,
                                                       count=count, **owed)
    tau = slice_tau()

    merged = [(lam, res, parity) for parity in parities
              for lam, res in zip(solved[block_of(parity)].eigenvalues,
                                  solved[block_of(parity)].residuals)]
    keep = np.argsort([lam for lam, _, _ in merged], kind="stable")[:k]
    eigenvalues, residuals, labels = zip(*(merged[i] for i in keep))

    counters = ("factor_nnz", "opinv_applications")
    blocks = [{"parity": parity,
               "multiplicity": multiplicity[parity],
               "order": result.metadata["order"],
               **{key: result.metadata.get(key, 0) for key in counters},
               "tau": result.metadata["tau"],
               "count_below_tau": result.metadata["count_below_tau"],
               "converged": result.converged}
              for parity, result in solved.items()]
    metadata = {"order": order, "k": k, "tau": float(tau),
                "k_closed": sum(multiplicity[p] * int(np.count_nonzero(r.eigenvalues < tau))
                                for p, r in solved.items()),
                "converged": all(b["converged"] for b in blocks),
                **{key: sum(b[key] for b in blocks) for key in counters},
                "blocks": blocks}
    method = "+".join(sorted({r.method for r in solved.values()}))
    return Solution(np.array(eigenvalues), np.array(residuals), list(labels),
                    method, metadata)


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
        reason = errno.ENOENT
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


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


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


def _csv(header, rows) -> str:
    return "\n".join([",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    _check_ladder(args.dim, args.n)
    runs = []
    for n in args.n:
        result = solve_problem(args.dim, n, args.bc, args.k, args.solver)
        runs.append((n, result.metadata["order"], result))

    if args.format == "json":
        payload = {
            "command": "solve",
            "dim": args.dim,
            "bc": args.bc,
            "k": args.k,
            "runs": [
                {"n": n, "order": order, **result.to_json_dict()}
                for n, order, result in runs
            ],
        }
        _emit(_json_dumps(payload), args.out)
    elif args.format == "csv":
        _emit(_csv(("n", "index", "eigenvalue", "residual", "method"),
                   [(n, i + 1, lam, res, result.method) for n, _, result in runs
                    for i, (lam, res) in enumerate(zip(result.eigenvalues, result.residuals))]),
              args.out)
    else:
        lines = [f"# solve dim={args.dim} bc={args.bc} k={args.k}"]
        for n, order, result in runs:
            status = "yes" if result.converged else "NO"
            lines.append(
                f"# n={n} order={order} method={result.method} converged={status}"
            )
            for i, lam in enumerate(result.eigenvalues):
                lines.append(
                    f"{n:>6} {i + 1:>4} {lam:>16.4f} {result.residuals[i]:>12.2e}"
                )
        _emit("\n".join(lines), args.out)

    if any(not result.converged for _, _, result in runs):
        print("solver did not converge on at least one run", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _cmd_table(args) -> int:
    from .reference import (BENCHMARK_CONFIG, BENCHMARK_N, BENCHMARK_VALUES,
                            STORED_REL_TOL, exact_eigenvalues, observed_rates)

    dim, bc = BENCHMARK_CONFIG[args.table_id]
    ladder = tuple(args.n) if args.n else BENCHMARK_N[args.table_id]
    if len(set(ladder)) != len(ladder) or list(ladder) != sorted(ladder):
        raise UsageError(f"cell counts must be strictly increasing, got {list(ladder)}")
    _check_ladder(dim, ladder)

    exact = exact_eigenvalues(dim) if bc == "simply-supported" else None
    stored = BENCHMARK_VALUES[args.table_id]

    rows = []
    converged = True
    prev_vals = None
    prev_n = None
    for n in ladder:
        result = solve_problem(dim, n, bc, DEFAULT_K)
        converged = converged and result.converged
        for i, lam in enumerate(result.eigenvalues):
            ref = stored[n][i] if n in stored else None
            row = {
                "n": n,
                "index": i + 1,
                "eigenvalue": float(lam),
                "reference": ref,
                "rel_diff": float(abs(lam - ref) / abs(ref)) if ref is not None else None,
                "exact": float(exact[i]) if exact is not None else None,
                "error": float(exact[i] - lam) if exact is not None else None,
                "rate": None,
                "monotone": None if prev_vals is None else bool(lam >= prev_vals[i]),
            }
            if exact is not None and prev_vals is not None:
                row["rate"] = observed_rates((prev_vals[i], lam), exact[i], (prev_n, n))[0]
            rows.append(row)
        prev_vals = result.eigenvalues
        prev_n = n

    if args.format == "json":
        payload = {
            "command": "table",
            "table": args.table_id,
            "dim": dim,
            "bc": bc,
            "n_values": list(ladder),
            "rows": rows,
        }
        _emit(_json_dumps(payload), args.out)
    elif args.format == "csv":
        cols = ("n", "index", "eigenvalue", "reference", "rel_diff", "exact",
                "error", "rate", "monotone")
        _emit(_csv(cols, [[row[col] for col in cols] for row in rows]), args.out)
    else:
        lines = [
            f"# benchmark table {args.table_id}: dim={dim} bc={bc}",
            f"{'n':>6} {'idx':>4} {'eigenvalue':>14} {'reference':>14} "
            f"{'exact':>14} {'rate':>10} {'mono':>5}",
        ]
        for row in rows:
            ref = f"{row['reference']:.4f}" if row["reference"] is not None else "---"
            exa = f"{row['exact']:.4f}" if row["exact"] is not None else "---"
            rate = f"{row['rate']:.6f}" if row["rate"] is not None else "---"
            mono = "---" if row["monotone"] is None else ("yes" if row["monotone"] else "NO")
            lines.append(
                f"{row['n']:>6} {row['index']:>4} {row['eigenvalue']:>14.4f} "
                f"{ref:>14} {exa:>14} {rate:>10} {mono:>5}"
            )
        _emit("\n".join(lines), args.out)

    if not converged:
        return EXIT_SOLVER_FAILURE
    drifted = [row for row in rows
               if row["rel_diff"] is not None and row["rel_diff"] > STORED_REL_TOL]
    if drifted:
        worst = max(drifted, key=lambda row: row["rel_diff"])
        print(f"{len(drifted)} eigenvalue(s) differ from the stored table by more "
              f"than {STORED_REL_TOL:g} relative; worst n={worst['n']} "
              f"index={worst['index']}: {worst['rel_diff']:.3e}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def _cmd_rates(args) -> int:
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

    values = []
    converged = True
    for n in n_values:
        result = solve_problem(args.dim, n, args.bc, args.k)
        converged = converged and result.converged
        values.append([float(v) for v in result.eigenvalues])

    per_index = list(zip(*values))
    if args.bc == "simply-supported":
        refs = [float(v) for v in exact_eigenvalues(args.dim, args.k)]
        ref_kind = "exact"
    else:
        refs = [richardson_reference(list(seq), n_values) for seq in per_index]
        ref_kind = "extrapolated"

    entries = []
    for i, seq in enumerate(per_index):
        rates = observed_rates(list(seq), refs[i], n_values)
        if ref_kind == "extrapolated":
            # The extrapolation assumes the last step's order; it is not measured.
            rates[-1] = None
        entries.append({
            "index": i + 1,
            "reference": refs[i],
            "reference_kind": ref_kind,
            "eigenvalues": list(seq),
            "rates": rates,
        })

    if args.format == "json":
        payload = {
            "command": "rates",
            "dim": args.dim,
            "bc": args.bc,
            "n_values": list(n_values),
            "entries": entries,
        }
        _emit(_json_dumps(payload), args.out)
    elif args.format == "csv":
        _emit(_csv(("index", "reference", "reference_kind", "step", "rate"),
                   [(entry["index"], entry["reference"], entry["reference_kind"],
                     f"{n_values[step]}->{n_values[step + 1]}", rate)
                    for entry in entries for step, rate in enumerate(entry["rates"])]),
              args.out)
    else:
        steps = " ".join(
            f"r({n_values[k]}->{n_values[k + 1]})" for k in range(len(n_values) - 1)
        )
        lines = [
            f"# observed orders dim={args.dim} bc={args.bc} "
            f"reference={ref_kind} n={','.join(map(str, n_values))}",
            f"{'idx':>4} {'reference':>14}  {steps}",
        ]
        for entry in entries:
            rates_txt = " ".join("---".rjust(10) if r is None else f"{r:>10.6f}"
                                 for r in entry["rates"])
            lines.append(f"{entry['index']:>4} {entry['reference']:>14.4f}  {rates_txt}")
        _emit("\n".join(lines), args.out)

    return EXIT_OK if converged else EXIT_SOLVER_FAILURE


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .operators import DEFAULT_SEED, SUITES

    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be a non-negative integer, got {args.seed}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    wanted = args.suite
    if wanted != "all" and wanted not in SUITES:
        raise UsageError(f"unknown suite {wanted!r}; choose from {', '.join(SUITES)}, or all")
    names = SUITES if wanted == "all" else (wanted,)
    suites = [SUITES[name](seed) for name in names]

    if args.format == "json":
        payload = {
            "command": "verify",
            "suite": wanted,
            "passed": all(rep.passed for rep in suites),
            "reports": [rep.to_json_dict() for rep in suites],
        }
        _emit(_json_dumps(payload), args.out)
    else:
        blocks = [rep.to_text() for rep in suites]
        overall = "PASS" if all(rep.passed for rep in suites) else "FAIL"
        _emit("\n\n".join(blocks) + f"\n\noverall: {overall}", args.out)

    return EXIT_OK if all(rep.passed for rep in suites) else EXIT_VERIFICATION_FAILURE


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
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"rectmorley: error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except (ValueError, ArithmeticError) as exc:
        print(f"rectmorley: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
