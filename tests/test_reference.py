import itertools
import math

import pytest

from rectmorley.functions import sine_eigenvalue
from rectmorley.reference import (BENCHMARK_CONFIG, BENCHMARK_IDS,
                                  BENCHMARK_N, BENCHMARK_RATES,
                                  BENCHMARK_VALUES, exact_eigenvalues, observed_rate,
                                  observed_rates, richardson_reference)


def test_benchmark_layout_is_complete():
    assert BENCHMARK_IDS == (1, 2, 3, 4)
    for tid in BENCHMARK_IDS:
        dim, bc = BENCHMARK_CONFIG[tid]
        assert dim in (2, 3)
        assert bc in ("clamped", "simply-supported")
        for n in BENCHMARK_N[tid]:
            assert len(BENCHMARK_VALUES[tid][n]) == 6


def test_benchmark_values_increase_with_refinement():
    for tid in BENCHMARK_IDS:
        ladder = BENCHMARK_N[tid]
        for prev, cur in zip(ladder, ladder[1:]):
            for a, b in zip(BENCHMARK_VALUES[tid][prev], BENCHMARK_VALUES[tid][cur]):
                assert b > a


def test_stored_values_stay_below_closed_form_eigenvalues():
    for tid in (2, 4):
        dim, _ = BENCHMARK_CONFIG[tid]
        exact = exact_eigenvalues(dim)
        for n in BENCHMARK_N[tid]:
            for lam_h, lam in zip(BENCHMARK_VALUES[tid][n], exact):
                assert lam_h < lam


def test_exact_eigenvalues_closed_form():
    pi4 = math.pi ** 4
    assert exact_eigenvalues(2) == pytest.approx(
        [4 * pi4, 25 * pi4, 25 * pi4, 64 * pi4, 100 * pi4, 100 * pi4]
    )
    assert exact_eigenvalues(3) == pytest.approx(
        [9 * pi4, 36 * pi4, 36 * pi4, 36 * pi4, 81 * pi4, 81 * pi4]
    )


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 7, 10, 50])
def test_exact_eigenvalues_match_every_sine_mode_of_a_larger_box(dim, k):
    values = sorted(sine_eigenvalue(m)
                    for m in itertools.product(range(1, 13), repeat=dim))
    assert list(exact_eigenvalues(dim, k)) == values[:k]


def test_observed_rate_halving_example():
    # Errors 4 then 1 while doubling the resolution is second order.
    assert observed_rate(4.0, 1.0, 4, 8) == pytest.approx(2.0)
    assert observed_rate(8.0, 1.0, 2, 4) == pytest.approx(3.0)


def test_observed_rate_validates_input():
    with pytest.raises(ValueError):
        observed_rate(4.0, 1.0, 8, 4)
    with pytest.raises(ValueError):
        observed_rate(-1.0, 1.0, 4, 8)
    with pytest.raises(ValueError):
        observed_rate(1.0, 0.0, 4, 8)


def test_observed_rates_on_synthetic_second_order_sequence():
    exact = 100.0
    n_values = (2, 4, 8)
    values = [exact - 64.0 / n ** 2 for n in n_values]
    rates = observed_rates(values, exact, n_values)
    assert rates == pytest.approx([2.0, 2.0])


def test_richardson_recovers_exact_limit_for_model_sequence():
    exact = 100.0
    n_values = (2, 4, 8)
    values = [exact - 64.0 / n ** 2 for n in n_values]
    assert richardson_reference(values, n_values) == pytest.approx(exact)
    with pytest.raises(ValueError):
        richardson_reference(values[:1], n_values[:1])


def test_stored_rates_match_their_own_value_tables():
    # The stored rates were derived from the tabulated eigenvalues rounded to
    # four decimals, so recomputing them from the stored values must agree to
    # that rounding level.
    for tid in (2, 4):
        dim, _ = BENCHMARK_CONFIG[tid]
        exact = exact_eigenvalues(dim)
        ladder = BENCHMARK_N[tid]
        for idx, stored_rates in BENCHMARK_RATES[tid].items():
            values = [BENCHMARK_VALUES[tid][n][idx] for n in ladder]
            rates = observed_rates(values, float(exact[idx]), ladder)
            assert rates == pytest.approx(list(stored_rates), abs=2e-5)
