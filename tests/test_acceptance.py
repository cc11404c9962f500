"""Acceptance gate: every shipped claim checked end to end.

Each test covers one acceptance criterion and emits exactly one summary line,
so `pytest -v -s tests/test_acceptance.py` reads as a checklist.  Heavy solves
are shared through the session-scoped solve_cached fixture.
"""

import numpy as np
import pytest

from rectmorley.operators import (run_bubble_suite, run_commuting_suite,
                                  run_interpolation_suite,
                                  run_refined_identity_suite)
from rectmorley.reference import (BENCHMARK_CONFIG, BENCHMARK_N, BENCHMARK_RATES,
                                  BENCHMARK_VALUES, exact_eigenvalues,
                                  observed_rates)
from rectmorley.symbol import METHOD_SYMBOL

RELATIVE_TABLE_TOL = 1e-3
RATE_TOL = 1e-3


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def max_table_rel_diff(table_id, dim, bc, n_values, solve_cached):
    worst = 0.0
    for n in n_values:
        result = solve_cached(dim, n, bc)
        stored = BENCHMARK_VALUES[table_id][n]
        for lam, ref in zip(result.eigenvalues, stored):
            worst = max(worst, abs(lam - ref) / abs(ref))
    return worst


def test_criterion_1_table_2_simply_supported_2d(solve_cached):
    n_values = BENCHMARK_N[2]
    worst = max_table_rel_diff(2, 2, "simply-supported", n_values, solve_cached)
    report(
        1,
        "2D simply supported eigenvalues match the stored table",
        worst < RELATIVE_TABLE_TOL,
        f"N={list(n_values)}, max rel diff {worst:.2e}",
    )


def test_criterion_2_table_1_clamped_2d(solve_cached):
    n_values = BENCHMARK_N[1]
    worst = max_table_rel_diff(1, 2, "clamped", n_values, solve_cached)
    increasing = True
    degenerate = 0.0
    prev = None
    for n in n_values:
        result = solve_cached(2, n, "clamped")
        lam = result.eigenvalues
        if prev is not None:
            increasing = increasing and bool(np.all(lam > prev))
        prev = lam
        degenerate = max(degenerate, abs(lam[1] - lam[2]) / lam[1])
    ok = worst < RELATIVE_TABLE_TOL and increasing and degenerate < 1e-8
    report(
        2,
        "2D clamped table matches, increases in N, and resolves the double pair",
        ok,
        f"max rel diff {worst:.2e}, pair split {degenerate:.2e}",
    )


def test_criterion_3_table_4_simply_supported_3d(solve_cached):
    n_values = BENCHMARK_N[4]
    worst = max_table_rel_diff(4, 3, "simply-supported", n_values, solve_cached)
    cluster = 0.0
    methods_ok = True
    for n in n_values:
        result = solve_cached(3, n, "simply-supported")
        lam = result.eigenvalues
        cluster = max(
            cluster,
            abs(lam[1] - lam[2]) / lam[1],
            abs(lam[1] - lam[3]) / lam[1],
        )
        methods_ok = methods_ok and result.method == METHOD_SYMBOL
    ok = worst < RELATIVE_TABLE_TOL and cluster < 1e-8 and methods_ok
    report(
        3,
        "3D simply supported table matches and resolves the triple cluster",
        ok,
        f"N={list(n_values)}, max rel diff {worst:.2e}, cluster split {cluster:.2e}",
    )


def test_criterion_4_table_3_clamped_3d(solve_cached):
    n_values = BENCHMARK_N[3]
    worst = max_table_rel_diff(3, 3, "clamped", n_values, solve_cached)
    increasing = True
    prev = None
    for n in n_values:
        result = solve_cached(3, n, "clamped")
        lam = result.eigenvalues
        if prev is not None:
            increasing = increasing and bool(np.all(lam > prev))
        prev = lam
    ok = worst < RELATIVE_TABLE_TOL and increasing
    report(
        4,
        "3D clamped table matches and increases in N",
        ok,
        f"N={list(n_values)}, max rel diff {worst:.2e}",
    )


def test_criterion_5_lower_bound_property(solve_cached):
    ok = True
    margin = np.inf
    for dim, table_id in ((2, 2), (3, 4)):
        exact = exact_eigenvalues(dim)
        for n in BENCHMARK_N[table_id]:
            result = solve_cached(dim, n, "simply-supported")
            gaps = exact - result.eigenvalues
            ok = ok and bool(np.all(gaps > 0))
            margin = min(margin, float(np.min(gaps)))
    report(
        5,
        "every simply supported discrete eigenvalue sits strictly below the exact one",
        ok,
        f"smallest exact-minus-discrete gap {margin:.4f}",
    )


def test_criterion_6_convergence_rates(solve_cached):
    worst = 0.0
    last_2d = np.inf
    for dim, table_id in ((2, 2), (3, 4)):
        exact = exact_eigenvalues(dim)
        ladder = BENCHMARK_N[table_id]
        values = [solve_cached(dim, n, "simply-supported").eigenvalues
                  for n in ladder]
        for idx, stored in BENCHMARK_RATES[table_id].items():
            seq = [float(v[idx]) for v in values]
            rates = observed_rates(seq, float(exact[idx]), ladder)
            for got, want in zip(rates, stored):
                worst = max(worst, abs(got - want))
            if dim == 2:
                last_2d = min(last_2d, rates[-1])
    ok = worst < RATE_TOL and last_2d >= 1.93
    report(
        6,
        "observed orders reproduce the stored rates and approach 2",
        ok,
        f"max rate deviation {worst:.2e}, smallest final 2D rate {last_2d:.4f}",
    )


def test_criterion_7_refined_identity_2d():
    rep = run_refined_identity_suite(2, n_pairs=200)
    by_name = {r.name: r for r in rep.records}
    worked = by_name["2d/worked-case/lhs-value"]
    ok = rep.passed and abs(worked.lhs - 16.0) < 1e-10
    report(
        7,
        "cellwise interpolation identity holds on 200 random 2D pairs",
        ok,
        f"worked case lhs={worked.lhs:.12g}",
    )


def test_criterion_8_refined_identity_3d_restricted():
    rep = run_refined_identity_suite(3, n_pairs=200)
    by_name = {r.name: r for r in rep.records}
    counter = by_name["3d/excluded-family/lhs-value"]
    gap = by_name["3d/excluded-family/identity-gap"]
    ok = (
        rep.passed
        and abs(counter.lhs + 32.0 / 3.0) < 1e-10
        and gap.deviation
        and abs(gap.rhs) < 1e-12
    )
    report(
        8,
        "restricted 3D identity holds; the excluded-family counterexample is recorded",
        ok,
        f"counterexample lhs={counter.lhs:.12g} rhs={gap.rhs:.12g}",
    )


def test_criterion_9_bubble_suite():
    rep = run_bubble_suite()
    counts = {r.name: r.lhs for r in rep.records if r.name.endswith("/count")}
    deviations = [r for r in rep.records if r.deviation]
    ok = (
        rep.passed
        and counts.get("2d/count") == 7
        and counts.get("3d/count") == 18
        and len(deviations) == 4
        and all(r.passed for r in deviations)
    )
    report(
        9,
        "all corrected bubbles annihilate every DOF; published forms flagged as deviations",
        ok,
        f"bubbles 7+18, {len(deviations)} documented deviations",
    )


def test_criterion_10_commuting_projection():
    rep = run_commuting_suite()
    worst = max(r.abs_diff for r in rep.records)
    ok = rep.passed and worst <= 1e-12
    report(
        10,
        "moment projection commutes with fourth derivatives through degree 6",
        ok,
        f"max discrepancy {worst:.2e}",
    )


def test_criterion_11_eigenvalue_error_identity():
    from rectmorley.operators import run_eigen_identity_suite

    rep = run_eigen_identity_suite()
    names = [r.name for r in rep.records]
    worst = max(abs(r.lhs) for r in rep.records)
    ok = rep.passed and any("sign-flip" in name for name in names)
    report(
        11,
        "four-term eigenvalue error identity closes at N=4,8 and survives sign flips",
        ok,
        f"max residual {worst:.2e} (tolerance 1e-6 relative)",
    )


def test_criterion_12_interpolation_convergence():
    rep = run_interpolation_suite()
    worst = max(rep.records, key=lambda r: r.abs_diff)
    ok = rep.passed and len(rep.records) == 18
    report(
        12,
        "interpolation errors of the sine mode, x0^2 x1 and x0^4 converge at "
        "L2/H1/H2 orders 3/2/1 (4/3/2 for x0^4) in 2D and 3D",
        ok,
        f"{len(rep.records)} orders, worst {worst.name}={worst.lhs:.3f}",
    )


def test_criterion_13_table_text_matches_stored(solve_cached):
    # `rectmorley table` prints each eigenvalue to 4 decimals, as stored: the
    # printed text is the stored text, which is stricter than the relative
    # tolerance of criteria 1-4.
    differ, total = [], 0
    for table_id, (dim, bc) in sorted(BENCHMARK_CONFIG.items()):
        for n in BENCHMARK_N[table_id]:
            result = solve_cached(dim, n, bc)
            stored = BENCHMARK_VALUES[table_id][n]
            assert len(result.eigenvalues) == len(stored)
            for i, (lam, ref) in enumerate(zip(result.eigenvalues, stored), 1):
                total += 1
                if f"{lam:.4f}" != f"{ref:.4f}":
                    differ.append(f"table {table_id} n={n} #{i}: {lam:.4f} != {ref:.4f}")
    report(
        13,
        "every stored table value prints to 4 decimals as stored",
        total == 108 and not differ,
        f"{len(differ)} of {total} differ" + (f"; first {differ[0]}" if differ else ""),
    )
