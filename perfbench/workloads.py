"""One pass of a rectmorley benchmark workload, in a fresh process.

    python3 perfbench/workloads.py --workload W --seed S --trace 0|1
    python3 perfbench/workloads.py --probe

run.py starts this once per pass, so that every pass pays the first-call
costs a user of the CLI pays.  The first form sets up, then runs each of
the workload's operations once; the second times set-up, then warms the
machine up (see warm_up).  Untraced, both also time the reference kernel
(see reference_kernel).  The last line on stdout is a JSON report.

The layers are reached only through rectmorley's public functions and its
CLI entry point, rectmorley.cli.main, with output captured and checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import gates
from spans import Tracer, layers_traced, maybe_span

VERIFY_SUITES = ("bubbles", "lemma2d", "lemma3d", "commuting", "identity37")
# Interpolation rungs of the all-ones sine eigenfunction, per dimension.
FIELD_LADDERS = {2: (16, 32, 64), 3: (4, 8)}
# 2D n=64 is the next doubling past the stored ladder.  At n=128 the
# shift-invert route fails its own residual check (exit code 1) at both
# boundary conditions, so that size cannot be a passing workload.
FINE_N, FINE_COARSER_N = 64, 32
# Reference kernel runs per probe, after its warm-up.
PROBE_KERNELS = 3


def setup(tracer=None) -> float:
    """Import numpy, scipy and rectmorley and build both reference elements
    with their exact matrices; returns the seconds this took."""
    start = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import rectmorley
    import rectmorley.cli  # noqa: F401
    import rectmorley.reference  # noqa: F401

    for dim in (2, 3):
        with maybe_span(tracer, "element"):
            element = rectmorley.build_reference_element(dim)
            rectmorley.element_matrices(element, 1.0)  # fills the exact-matrix cache
    return time.perf_counter() - start


def warm_up():
    """An untimed dense solve after a probe's set-up.

    After the machine idles, the first sizeable BLAS/LAPACK call of the next
    process takes 0.4-0.7 s longer; later processes do not pay it.  Probes
    run before the passes so that this cost falls on them, not on whichever
    pass happens to come first.
    """
    run_cli(["solve", "--dim", "2", "--n", "12", "--solver", "dense"])


def reference_kernel() -> float:
    """Seconds that one fixed piece of work takes now: the host's speed.

    The shared host runs up to 1.8 times slower for minutes at a time, and
    every time the benchmark measures moves with it.  The kernel uses
    nothing of rectmorley, so no change to the program moves it: an
    interpreter loop and numpy calls on a small array, about 20 ms.  It
    calls no BLAS, whose worker threads would disturb the next timings.
    """
    import numpy as np

    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(75_000):
        total += (i % 7) * 0.5
        table[i & 255] = total
    vector = np.arange(64.0)
    for _ in range(2000):
        vector = vector * 1.0000001 + 0.5
        vector.sum()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Pass:
    """State one pass carries between its operations."""

    previous: dict = field(default_factory=dict)   # ladder -> last rung's result
    counts: Counter = field(default_factory=Counter)


@dataclass(frozen=True)
class Op:
    """One operation: a table rung, a solve, a verify suite or a field rung.

    run(pass) returns the failure messages of the correctness gate.
    """

    label: str
    span: str
    run: Callable


def run_cli(argv) -> dict:
    """Run `rectmorley <argv> --format json` in-process and parse its output."""
    from rectmorley.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"rectmorley {' '.join(argv)} exited with code {code}")
    return json.loads(out.getvalue())


def _table_rung(table, n, reference, exact, state: Pass):
    rows = run_cli(["table", str(table), "--n", str(n)])["rows"]
    values = [row["eigenvalue"] for row in rows]
    previous = state.previous.get(("table", table))
    state.previous[("table", table)] = values
    return gates.table_rung(values, reference, exact, previous)


def _fine_solve(dim, n, bc, coarser_row, exact, state: Pass):
    run = run_cli(["solve", "--dim", str(dim), "--n", str(n), "--bc", bc,
                   "--k", str(len(coarser_row))])["runs"][0]
    return gates.fine_solve(run["eigenvalues"], coarser_row, exact)


def _verify_suite(suite, seed, state: Pass):
    report = run_cli(["verify", suite, "--seed", str(seed)])
    state.counts["verify.records"] += sum(len(r["checks"]) for r in report["reports"])
    return [] if report["passed"] else [f"suite {suite} did not pass"]


def _field_rung(dim, n, state: Pass):
    from rectmorley import assembly, element, functions, mesh

    box = mesh.build_mesh(dim, n)
    dofmap = assembly.build_dof_map(box, "simply-supported")
    u = functions.unit_box_eigenfunction((1,) * dim)
    interpolant = assembly.interpolate_global(u, box, dofmap).field
    errors = assembly.broken_error_norms(u, interpolant, box,
                                         element.build_reference_element(dim))
    coarse = state.previous.get(("field", dim))
    state.previous[("field", dim)] = (n, errors)
    return [] if coarse is None else gates.interpolation_orders(coarse, (n, errors))


def _problem(table):
    from rectmorley.reference import BENCHMARK_CONFIG, exact_eigenvalues

    dim, bc = BENCHMARK_CONFIG[table]
    exact = [float(v) for v in exact_eigenvalues(dim)] if bc == "simply-supported" else None
    return dim, bc, exact


def table_ops(tables, ladders=None, references=None) -> list:
    """One operation per rung of `rectmorley table T` on the stored ladders."""
    from rectmorley.reference import BENCHMARK_N, BENCHMARK_VALUES

    ladders = ladders or BENCHMARK_N
    references = references or BENCHMARK_VALUES
    ops = []
    for table in tables:
        _, _, exact = _problem(table)
        ops += [Op(f"table {table} n={n}", "driver",
                   partial(_table_rung, table, n, references[table][n], exact))
                for n in ladders[table]]
    return ops


def fine_ops(tables, n, coarser_n) -> list:
    """`rectmorley solve` past the stored ladder, one per table's problem."""
    from rectmorley.reference import BENCHMARK_VALUES

    ops = []
    for table in tables:
        dim, bc, exact = _problem(table)
        coarser_row = BENCHMARK_VALUES[table][coarser_n]
        ops.append(Op(f"solve dim={dim} bc={bc} n={n}", "driver",
                      partial(_fine_solve, dim, n, bc, coarser_row, exact)))
    return ops


def verify_ops(seed, suites=VERIFY_SUITES, ladders=None) -> list:
    """`rectmorley verify <suite> --seed S` per suite, then the field rungs."""
    ops = [Op(f"verify {suite}", f"verify.{suite}", partial(_verify_suite, suite, seed))
           for suite in suites]
    for dim, ns in (ladders or FIELD_LADDERS).items():
        ops += [Op(f"field {dim}d n={n}", "driver", partial(_field_rung, dim, n))
                for n in ns]
    return ops


WORKLOADS = {
    "tables-2d": lambda seed: table_ops((1, 2)),
    "tables-3d": lambda seed: table_ops((3, 4)),
    "fine-2d": lambda seed: fine_ops((1, 2), FINE_N, FINE_COARSER_N),
    "verify-interp": verify_ops,
}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _attempt(op: Op, state: Pass) -> list:
    try:
        return op.run(state)
    except Exception as exc:  # a failed operation is counted and the run goes on
        return [f"{type(exc).__name__}: {exc}"]


def run_pass(ops, tracer=None) -> dict:
    """Run every operation once; return attempts, failures and timings.

    Untraced, it times the reference kernel before the first operation and
    after each one (kernel_seconds, one more entry than op_seconds); wall_s
    leaves these out.  Traced, it runs no kernel and adds each layer's self
    time, the counts and the spans; the layer self times other than element
    (set-up) add up to wall_s.
    """
    state = Pass()
    op_seconds = []
    kernel_seconds = []
    if tracer is None:
        reference_kernel()
        kernel_seconds.append(reference_kernel())
    failed = 0
    with layers_traced(tracer) if tracer else contextlib.nullcontext():
        begin = time.perf_counter()
        with maybe_span(tracer, "driver"):
            for op in ops:
                op_start = time.perf_counter()
                with maybe_span(tracer, op.span):
                    failures = _attempt(op, state)
                op_seconds.append(time.perf_counter() - op_start)
                if tracer is None:
                    kernel_seconds.append(reference_kernel())
                failed += bool(failures)
                for message in failures:
                    print(f"FAIL {op.label}: {message}", flush=True)
        wall = time.perf_counter() - begin - sum(kernel_seconds[1:])
    report = {
        "attempted": len(ops),
        "failed": failed,
        "op_seconds": op_seconds,
        "kernel_seconds": kernel_seconds,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if tracer:
        report["layer_seconds"] = dict(tracer.self_times())
        report["counts"] = dict(tracer.counts + state.counts)
        report["spans"] = tracer.spans
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="time set-up, then warm up")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", default="run", help="run id recorded on every span")
    args = parser.parse_args(argv)
    if not args.probe and args.workload is None:
        parser.error("--workload is required unless --probe is given")
    tracer = Tracer(args.run_id) if args.trace else None
    setup_s = setup(tracer)
    if args.probe:
        warm_up()
        report = {"kernel_seconds": [reference_kernel() for _ in range(PROBE_KERNELS)]}
    else:
        report = run_pass(WORKLOADS[args.workload](args.seed), tracer)
    report["setup_s"] = setup_s
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
