"""Tests for the empirical CDF."""

from __future__ import annotations

import pytest

from repro.net.errors import AnalysisError
from repro.stats.cdf import EmpiricalCdf


def test_cdf_evaluate_basic():
    cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0])
    assert cdf.evaluate(0.5) == 0.0
    assert cdf.evaluate(2.0) == pytest.approx(0.5)
    assert cdf.evaluate(4.0) == pytest.approx(1.0)
    assert cdf.evaluate(10.0) == pytest.approx(1.0)


def test_cdf_fraction_above_zero_counts_reordering_paths():
    rates = [0.0, 0.0, 0.0, 0.01, 0.05, 0.2]
    cdf = EmpiricalCdf(rates)
    assert cdf.fraction_above(0.0) == pytest.approx(0.5)


def test_cdf_points_are_monotone():
    cdf = EmpiricalCdf([0.3, 0.1, 0.2, 0.2])
    points = cdf.points()
    values = [v for v, _f in points]
    fractions = [f for _v, f in points]
    assert values == sorted(values)
    assert fractions == sorted(fractions)
    assert fractions[-1] == pytest.approx(1.0)


def test_cdf_quantile_matches_values():
    cdf = EmpiricalCdf([1.0, 2.0, 3.0, 4.0, 5.0])
    assert cdf.quantile(0.0) == 1.0
    assert cdf.quantile(1.0) == 5.0
    assert cdf.quantile(0.5) in (2.0, 3.0)


def test_cdf_quantile_rejects_bad_level():
    cdf = EmpiricalCdf([1.0])
    with pytest.raises(AnalysisError):
        cdf.quantile(-0.1)


def test_cdf_empty_rejected():
    with pytest.raises(AnalysisError):
        EmpiricalCdf([])


def test_cdf_to_rows_formatting():
    cdf = EmpiricalCdf([0.25, 0.75])
    rows = cdf.to_rows(precision=2)
    assert rows[0].startswith("0.25\t")
    assert rows[1].endswith("1.0000")


def test_cdf_quantile_exact_multiples_do_not_overshoot():
    """Regression: round(q*n + 0.5) rounds half to even, so exact-integer
    q*n (e.g. 0.75 * 4) overshot by one order statistic."""
    cdf = EmpiricalCdf([1, 2, 3, 4])
    assert cdf.quantile(0.25) == 1
    assert cdf.quantile(0.5) == 2
    assert cdf.quantile(0.75) == 3
    assert cdf.quantile(1.0) == 4


def test_cdf_quantile_is_smallest_value_with_cdf_at_least_q():
    for n in range(1, 12):
        values = list(range(1, n + 1))
        cdf = EmpiricalCdf(values)
        for numerator in range(0, 4 * n + 1):
            q = numerator / (4 * n)
            expected = next(v for v in values if cdf.evaluate(v) >= q)
            assert cdf.quantile(q) == expected, (n, q)
