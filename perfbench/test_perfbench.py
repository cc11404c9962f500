"""Smoke test of the benchmark on tiny ladders.

Runs the benchmark's own passes in-process (a few seconds in all) and the
entry point once in a directory that holds no sources.  Needs src/ on the
import path, as the repository's test command sets it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gates
import run
import workloads
from spans import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_ops(references=None):
    return (workloads.table_ops((1, 2), ladders={1: (4, 8), 2: (4, 8)}, references=references)
            + workloads.fine_ops((2,), n=8, coarser_n=4)
            + workloads.verify_ops(seed=5, suites=("bubbles", "identity37"),
                                   ladders={2: (8, 16)}))


def traced_pass(references=None):
    tracer = Tracer("smoke")
    workloads.setup(tracer)
    return workloads.run_pass(tiny_ops(references), tracer)


@pytest.fixture(scope="module")
def probe():
    setup_s = workloads.setup()
    return {"setup_s": setup_s, "kernel_seconds": [workloads.reference_kernel()]}


@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(probe, trace, key):
    passes = [(False, {**workloads.run_pass(tiny_ops()), "setup_s": 0.5})]
    if trace:
        passes.append((True, traced_pass()))
    result = run.result_line(passes, [probe], trace, rated=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(passes) * len(tiny_ops())
    printed = [(name, metric["unit"]) for name, metric in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in BENCHMARK[key]]


def test_exact_counts_repeat_between_runs(probe):
    first, second = traced_pass(), traced_pass()
    assert ({n: first["counts"].get(n) for n in run.COUNT_UNITS}
            == {n: second["counts"].get(n) for n in run.COUNT_UNITS})
    assert first["counts"]["assemble.nnz"] > 0
    assert first["counts"]["eigensolve.dense_calls"] > 0
    assert first["counts"]["verify.records"] > 0


def test_layer_self_times_account_for_traced_wall(probe):
    report = traced_pass()
    pass_layers = {k: v for k, v in report["layer_seconds"].items() if k != "element"}
    assert set(pass_layers) <= set(run.TIMED_LAYERS)
    assert sum(pass_layers.values()) == pytest.approx(report["wall_s"], rel=1e-3)
    assert report["layer_seconds"]["element"] > 0


def test_wrong_reference_is_counted_as_a_failure(probe, capsys):
    from rectmorley.reference import BENCHMARK_VALUES

    references = copy.deepcopy(BENCHMARK_VALUES)
    row = list(references[1][8])
    row[0] *= 1.01
    references[1][8] = tuple(row)
    report = workloads.run_pass(tiny_ops(references))
    assert report["failed"] == 1
    assert report["attempted"] == len(tiny_ops())
    assert "FAIL table 1 n=8: eigenvalue 1" in capsys.readouterr().out
    report["setup_s"] = 0.5
    assert not run.result_line([(False, report)], [probe], False)["correct"]


def test_times_are_rated_by_the_reference_kernel(probe):
    report = workloads.run_pass(tiny_ops())
    assert len(report["kernel_seconds"]) == len(report["op_seconds"]) + 1
    assert sum(report["op_seconds"]) <= report["wall_s"]
    assert traced_pass()["kernel_seconds"] == []

    reference = run.REFERENCE_KERNEL_S
    slow = [{"setup_s": 0.8, "op_seconds": [1.0, 3.0], "peak_rss_mb": 10.0,
             "kernel_seconds": [reference, 3 * reference, 2 * reference]},
            {"setup_s": 0.6, "op_seconds": [2.0, 2.0], "peak_rss_mb": 12.0,
             "kernel_seconds": [reference] * 3}]
    probes = [{"setup_s": 0.8, "kernel_seconds": [2 * reference, 4 * reference, 1.0]}]
    assert run.op_seconds(slow[0], rated=True) == pytest.approx([0.5, 1.2])
    assert run.setup_seconds(probes, slow) == pytest.approx([0.2, 0.8, 0.6])
    rated = run.end_to_end_metrics(slow, probes, rated=True)
    assert [rated[name]["value"] for name in run.END_TO_END_UNITS] == pytest.approx([0.6, 1.7, 11.0])
    assert run.end_to_end_metrics(slow, probes, rated=False)["wall_s"]["value"] == pytest.approx(3.0)


def test_gates_reject_bad_eigenvalues():
    exact, previous = [10.0, 20.0, 20.0], [9.0, 18.0, 18.0]
    assert gates.fine_solve([9.5, 19.0, 19.0], previous, exact) == []
    assert len(gates.fine_solve([10.5, 19.0, 19.0], previous, exact)) == 1   # above exact
    assert len(gates.fine_solve([8.5, 19.0, 19.0], previous, exact)) == 1    # not monotone
    assert len(gates.fine_solve([9.5, 19.0, 19.1], previous, exact)) == 1    # pair split
    coarse = (8, {0: 8e-3, 1: 4e-2, 2: 2e-1})
    assert gates.interpolation_orders(coarse, (16, {0: 1e-3, 1: 1e-2, 2: 1e-1})) == []
    assert len(gates.interpolation_orders(coarse, (16, {0: 2e-3, 1: 1e-2, 2: 1e-1}))) == 1


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        shutil.copy(source, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables-2d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
