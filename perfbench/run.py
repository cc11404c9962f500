"""Benchmark of rectmorley: one run of one workload.

Run from the root of a checkout (the program is used from src/, nothing is
installed):

    python3 perfbench/run.py --workload tables-2d --seed 1 --seconds 20 --trace 0

Workloads: tables-2d, tables-3d, fine-2d, verify-interp (see README.md).
The run pins the BLAS/OpenMP pools to the number of usable cores before
numpy loads.  It times set-up in SETUP_PROBES processes that then warm the
machine up, and runs passes of the workload, each in a fresh process
(workloads.py).  It starts another pass only while one more, taking as long
as the last, would end within --seconds; it always makes at least one.  A
traced run alternates untraced and traced passes, at least one of each.
setup_s is the median over the probes and the untraced passes.  setup_s,
and wall_s of RATED_WORKLOADS, are rated to a fixed host speed with the
reference kernel (see host_rated).  Every operation's output is checked;
failures are printed and counted.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1.  Exit code 0 when every operation passed, 1 when one failed or
a pass process broke, 2 when the checkout holds no rectmorley sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from workloads import VERIFY_SUITES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 6
# About the median seconds of workloads.reference_kernel on the host this
# benchmark was built on (2-vCPU KVM guest, Xeon family 6 model 207).
REFERENCE_KERNEL_S = 0.020
# Workloads whose time is single-threaded work, as the kernel's is: their
# wall_s is host-rated (README.md, "Host-rated times").
RATED_WORKLOADS = ("verify-interp", "fine-2d")
# Leaves a margin under the 180 s a run may take.
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "RECTMORLEY_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
TIMED_LAYERS = ("mesh", "dofmap", "element", "assemble", "eigensolve",
                "interpolate", "norms",
                *(f"verify.{suite}" for suite in VERIFY_SUITES), "driver")
COUNT_UNITS = {
    "assemble.nnz": "count",
    "eigensolve.order": "count",
    "eigensolve.dense_calls": "count",
    "eigensolve.shift_invert_calls": "count",
    "eigensolve.dense_mb": "MB_computed",
    "verify.records": "count",
}
PER_LAYER_UNITS = {
    **{f"{layer}.s": "s" for layer in TIMED_LAYERS},
    **COUNT_UNITS,
    "eigensolve.converged_ratio": "ratio",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCES), env.get("PYTHONPATH")]))
    return env


def run_child(args, env, deadline: float) -> dict:
    """Run workloads.py, forward its stdout, and return its JSON report."""
    proc = subprocess.run([sys.executable, str(HERE / "workloads.py"), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"pass process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def host_rated(seconds: float, kernel_s: float) -> float:
    """seconds as they would read on a host where the reference kernel takes
    REFERENCE_KERNEL_S, given that it took kernel_s next to them.

    The shared host runs up to 1.8 times slower for minutes at a time.  The
    kernel slows with it, and no change to the program moves it.  It is
    single-threaded interpreter work, so it rates work of that kind: set-up,
    and the workloads in RATED_WORKLOADS.
    """
    return seconds * REFERENCE_KERNEL_S / kernel_s


def op_seconds(report, rated: bool) -> list:
    """A pass's operation times, each rated by the kernel runs either side."""
    if not rated:
        return report["op_seconds"]
    kernels = report["kernel_seconds"]
    return [host_rated(seconds, (before + after) / 2)
            for seconds, before, after in zip(report["op_seconds"], kernels, kernels[1:])]


def setup_seconds(probes, passes) -> list:
    """Rated set-up times of probes and untraced passes."""
    return ([host_rated(probe["setup_s"], statistics.median(probe["kernel_seconds"]))
             for probe in probes]
            + [host_rated(report["setup_s"], report["kernel_seconds"][0]) for report in passes])


def end_to_end_metrics(passes, probes, rated: bool) -> dict:
    """Set-up median; one pass as each operation's fastest time; median peak RSS.

    The fastest time, not the median: on a shared host, bursts of outside
    load only ever add time.  Over ten fine-2d runs in a calm stretch, the
    spread was 0.22 with per-operation medians and 0.04 with minima.
    """
    times = zip(*(op_seconds(report, rated) for report in passes))
    values = {
        "setup_s": statistics.median(setup_seconds(probes, passes)),
        "wall_s": sum(min(op_times) for op_times in times),
        "peak_rss_mb": statistics.median(report["peak_rss_mb"] for report in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(traced, untraced) -> dict:
    """Layer self times as means over the traced passes; counts of the first."""
    seconds = Counter()
    for report in traced:
        seconds.update(report["layer_seconds"])
    counts = Counter(traced[0]["counts"])
    calls = counts["eigensolve.calls"]
    traced_wall = statistics.fmean(report["wall_s"] for report in traced)
    values = {
        **{f"{layer}.s": seconds[layer] / len(traced) for layer in TIMED_LAYERS},
        **{name: counts[name] for name in COUNT_UNITS},
        "eigensolve.converged_ratio": counts["eigensolve.converged"] / calls if calls else 1.0,
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - statistics.fmean(r["wall_s"] for r in untraced),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()}


def result_line(passes, probes, trace: bool, rated: bool = False) -> dict:
    """The final JSON object from (traced, report) pairs and probe reports;
    rated: whether wall_s is host-rated."""
    reports = [report for _, report in passes]
    failed = sum(report["failed"] for report in reports)
    untraced = [report for traced, report in passes if not traced]
    if trace:
        metrics = per_layer_metrics([r for traced, r in passes if traced], untraced)
    else:
        metrics = end_to_end_metrics(untraced, probes, rated)
    return {"correct": failed == 0,
            "attempted": sum(report["attempted"] for report in reports),
            "failed": failed, "metrics": metrics}


def run_passes(args, env, deadline: float) -> list:
    passes = []
    start = time.monotonic()
    traced = False
    while True:
        pass_start = time.monotonic()
        report = run_child(["--workload", args.workload, "--seed", str(args.seed),
                            "--trace", str(int(traced)),
                            "--run-id", f"{args.workload}-seed{args.seed}-pass{len(passes)}"],
                           env, deadline)
        passes.append((traced, report))
        took = time.monotonic() - pass_start
        # Passes alternate untraced/traced, so two passes hold one of each.
        if time.monotonic() - start + took > args.seconds and (not args.trace or len(passes) >= 2):
            return passes
        traced = bool(args.trace) and not traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SOURCES / "rectmorley" / "cli.py").is_file():
        print(f"perfbench: no rectmorley sources under {SOURCES}", file=sys.stderr)
        return 2

    # Raised inside subprocess.run, SystemExit makes it kill the pass process.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    try:
        probes = [run_child(["--probe"], env, deadline) for _ in range(SETUP_PROBES)]
        passes = run_passes(args, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    rated = args.workload in RATED_WORKLOADS
    result = result_line(passes, probes, bool(args.trace), rated)

    untraced = [report for traced, report in passes if not traced]
    kernels = [k for report in probes + untraced for k in report["kernel_seconds"]]
    raw_wall = end_to_end_metrics(untraced, probes, rated=False)["wall_s"]["value"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"threads={threads} passes={len(passes)}")
    print(f"# reference kernel median {statistics.median(kernels)!r} s, "
          f"rated to {REFERENCE_KERNEL_S} s; wall_s rated: {rated}; "
          f"raw wall {raw_wall!r} s")
    for name, metric in result["metrics"].items():
        print(f"{name:<30} {metric['value']!r} {metric['unit']}")
    print(f"{'fail_ratio':<30} {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} operations)")
    if args.trace:
        traced = [report for kind, report in passes if kind]
        if any(report["counts"] != traced[0]["counts"] for report in traced):
            print("counts differ between traced passes; the first pass's are shown")
        accounted = statistics.fmean(
            sum(v for layer, v in report["layer_seconds"].items() if layer != "element")
            for report in traced)
        print(f"layer self times without element add up to {accounted!r} s "
              f"of traced_wall_s")
        TRACE_DIR.mkdir(exist_ok=True)
        with open(TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w",
                  encoding="utf-8") as stream:
            json.dump([span for report in traced for span in report["spans"]], stream)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
