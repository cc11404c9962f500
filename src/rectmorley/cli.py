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


def build_parser() -> argparse.ArgumentParser:
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
    solve.add_argument("--solver", choices=("auto", "dense"), default="auto")
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
    rates.add_argument("--richardson", action="store_true",
                       help="clamped only: measure against a reference "
                            "extrapolated from the two finest meshes (needs three "
                            "or more)")
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
# smaller factors save.  Measured split/one-block time (min of 7, 2 threads,
# range of two sweeps, clamped / simply supported with their free DOFs):
# 2D n=14 (533/589) 1.27-1.31 / 1.03-1.05, n=16 (705/769) 1.12-1.15 /
# 0.94-0.95, n=18 (901/973) 1.01-1.02 / 0.90-0.91, n=20 (1121/1201)
# 0.93-0.94 / 0.82-0.83, n=22..24 0.82-0.84 / 0.73-0.78; 3D n=4 (171/267)
# 1.01 / 0.88-0.89, n=6 (665/881) 0.56-0.58 / 0.43-0.44.  3D n=4 stays one
# block in both BCs: splitting it saves about 1 ms, and the stored ladder's
# rungs keep their routes and so their parity labels.
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
    even n the problem splits into 2^dim parity blocks.  Each block is the
    same Morley problem on the half box [0, 1/2]^dim, with the given bc on
    the outer faces and an even (facets) or odd (vertices) condition on the
    mid-plane faces.  The half box is numbered and assembled once, with
    free mid-plane faces, and each block is the principal submatrix on its
    own free DOFs, in that shared nested-dissection order.  An axis
    permutation maps one block onto another with as many odd axes, so one
    representative per count j of odd axes is solved, and its eigenvalues
    count C(dim, j) times.  Odd n, and problems with fewer than
    SPLIT_MIN_ORDER[dim] free DOFs, are solved as one block on the full box.

    The blocks are sliced at tau = (k-th merged eigenvalue) (1 + REL_GAP),
    and solved in decreasing multiplicity (3D oee, ooe, eee, ooo; 2D oe, ee,
    oo).  The first block is solved for ceil(k / multiplicity) eigenpairs
    (fewer if it is smaller), which alone give k merged values.  Each later
    block is counted at the running tau of the blocks before it and solved
    for exactly every eigenpair below it; a block that owes none is not
    factored.  Last, the first block is counted at the final tau and
    completed if it falls short; the only block of a one-block problem
    keeps its factor for that.  Every block then holds every eigenvalue
    below the final tau, and metadata["k_closed"] counts them with
    multiplicity: above k when k cuts a cluster.

    The k smallest of the merged eigenvalues are returned in ascending order
    (a stable sort); no full-space eigenvectors are assembled.
    metadata["order"] is the free-DOF count of the full problem, converged
    holds only if every block converged and passed its count, and the work
    counters sum over the blocks, which metadata["blocks"] lists in solve
    order.
    """
    import itertools
    import math
    from collections import Counter

    import numpy as np

    from . import eigensolve
    from .assembly import (FACE_FREE, PARITY_EVEN, PARITY_ODD, assemble, build_dof_map,
                           free_dof_count, restricted_dofs)
    from .element import build_reference_element
    from .mesh import build_mesh

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
    # The clamped stiffness matrix is definite, so the origin is a safe
    # shift; simply supported runs shift below the spectrum instead.
    sigma = 0.0 if bc == "clamped" else -1.0

    def block_of(parity):
        """The solved representative of parity's class: its odd axes first."""
        return None if parity is None else "".join(sorted(parity, reverse=True))

    multiplicity = Counter(block_of(p) for p in parities)
    # Largest classes first, so that the first block's copies alone give k
    # values; the sort is stable, so ties keep their count of odd axes.
    representatives = sorted(multiplicity, key=multiplicity.get, reverse=True)

    dofmap = build_dof_map(mesh, bc, shared_faces)
    shared = assemble(mesh, dofmap, element)

    def pencil(parity):
        """The block's (A, M): the shared pencil on the block's free DOFs."""
        if parity is None:
            return shared
        keep = restricted_dofs(dofmap, [side for p in parity for side in
                                        (bc, PARITY_ODD if p == "o" else PARITY_EVEN)])
        return tuple(mat[keep][:, keep] for mat in shared)

    def slice_tau():
        """(1 + REL_GAP) times the k-th value merged so far, inf if fewer."""
        values = np.sort(np.concatenate([np.repeat(r.eigenvalues, multiplicity[p])
                                         for p, r in solved.items()]))
        return values[k - 1] * (1 + eigensolve.REL_GAP) if len(values) >= k else np.inf

    # solve_smallest is looked up at call time, so that a caller who swaps
    # the module attribute (a tracer) sees every block solve and count.
    first = representatives[0]
    solved = {}
    for parity in representatives:
        a_mat, m_mat = pencil(parity)
        if parity == first:
            solved[parity] = eigensolve.solve_smallest(
                a_mat, m_mat, min(math.ceil(k / multiplicity[parity]), a_mat.shape[0]),
                method=solver, sigma=sigma, keep_factor=parity is None)
        else:
            solved[parity] = eigensolve.solve_smallest(
                a_mat, m_mat, method=solver, sigma=sigma, tau=slice_tau())
    solved[first] = eigensolve.solve_smallest(*pencil(first), method=solver, sigma=sigma,
                                              tau=slice_tau(), known=solved[first])
    tau = slice_tau()

    merged = [(lam, res, parity) for parity in parities
              for lam, res in zip(solved[block_of(parity)].eigenvalues,
                                  solved[block_of(parity)].residuals)]
    keep = np.argsort([lam for lam, _, _ in merged], kind="stable")[:k]
    eigenvalues, residuals, labels = zip(*(merged[i] for i in keep))

    counters = ("factor_nnz", "opinv_applications")
    metadata = {}
    for result in solved.values():
        metadata.update(result.metadata)
    del metadata["count_below_tau"]
    for key in counters:
        metadata[key] = sum(r.metadata.get(key, 0) for r in solved.values())
    metadata.update(order=order, k=k, tau=float(tau),
                    k_closed=sum(multiplicity[p] * int(np.count_nonzero(r.eigenvalues < tau))
                                 for p, r in solved.items()),
                    converged=all(r.converged for r in solved.values()),
                    blocks=[{"parity": parity,
                             "multiplicity": multiplicity[parity],
                             "order": result.metadata["order"],
                             **{key: result.metadata.get(key, 0) for key in counters},
                             "tau": result.metadata["tau"],
                             "count_below_tau": result.metadata["count_below_tau"],
                             "converged": result.converged}
                            for parity, result in solved.items()])
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
        lines = ["n,index,eigenvalue,residual,method"]
        for n, _, result in runs:
            for i, lam in enumerate(result.eigenvalues):
                lines.append(
                    f"{n},{i + 1},{float(lam)!r},{float(result.residuals[i])!r},"
                    f"{result.method}"
                )
        _emit("\n".join(lines), args.out)
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
        lines = [",".join(cols)]
        for row in rows:
            cells = []
            for col in cols:
                val = row[col]
                cells.append("" if val is None else
                             (str(int(val)) if col in ("n", "index") else
                              ("yes" if val is True else "no" if val is False else repr(val))))
            lines.append(",".join(cells))
        _emit("\n".join(lines), args.out)
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

    if args.richardson != (args.bc == "clamped"):
        raise UsageError(
            "--richardson is required for clamped rates, which have no closed-form "
            "eigenvalues, and refused for simply supported ones, which use them"
        )
    if args.bc == "clamped":
        if len(n_values) < 3:
            raise UsageError(
                "--richardson needs at least three distinct cell counts: the "
                "reference comes from the two finest, so their step has no "
                "measured order"
            )
    else:
        exact = exact_eigenvalues(args.dim)
        if args.k > len(exact):
            raise UsageError(
                f"only the first {len(exact)} closed-form simply supported "
                f"eigenvalues are stored; --k must be at most {len(exact)}"
            )

    values = []
    converged = True
    for n in n_values:
        result = solve_problem(args.dim, n, args.bc, args.k)
        converged = converged and result.converged
        values.append([float(v) for v in result.eigenvalues])

    per_index = list(zip(*values))
    if args.bc == "simply-supported":
        refs = [float(v) for v in exact[: args.k]]
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
        lines = ["index,reference,reference_kind,step,rate"]
        for entry in entries:
            for step, rate in enumerate(entry["rates"]):
                lines.append(
                    f"{entry['index']},{entry['reference']!r},{entry['reference_kind']},"
                    f"{n_values[step]}->{n_values[step + 1]},"
                    f"{'' if rate is None else repr(rate)}"
                )
        _emit("\n".join(lines), args.out)
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
