"""Tests for binomial estimates and confidence intervals."""

from __future__ import annotations

import pytest

from repro.net.errors import AnalysisError
from repro.stats.intervals import binomial_estimate, wilson_interval


def test_wilson_interval_contains_point_estimate():
    low, high = wilson_interval(30, 100)
    assert low < 0.3 < high


def test_wilson_interval_bounded():
    low, high = wilson_interval(0, 10)
    assert low == 0.0
    assert 0.0 <= high <= 1.0
    low, high = wilson_interval(10, 10)
    assert high == pytest.approx(1.0)


def test_wilson_narrower_with_more_trials():
    low_small, high_small = wilson_interval(10, 100)
    low_big, high_big = wilson_interval(100, 1000)
    assert (high_big - low_big) < (high_small - low_small)


def test_wilson_wider_at_higher_confidence():
    low95, high95 = wilson_interval(20, 100, confidence=0.95)
    low999, high999 = wilson_interval(20, 100, confidence=0.999)
    assert (high999 - low999) > (high95 - low95)


def test_invalid_inputs_rejected():
    with pytest.raises(AnalysisError):
        wilson_interval(1, 0)
    with pytest.raises(AnalysisError):
        wilson_interval(5, 3)
    with pytest.raises(AnalysisError):
        wilson_interval(-1, 10)


def test_binomial_estimate_fields():
    estimate = binomial_estimate(7, 70)
    assert estimate.rate == pytest.approx(0.1)
    assert estimate.successes == 7
    assert estimate.trials == 70
    assert estimate.ci_low <= estimate.rate <= estimate.ci_high
    assert "7/70" in estimate.describe()


def test_arbitrary_confidence_uses_bisection():
    low, high = wilson_interval(10, 100, confidence=0.93)
    low95, high95 = wilson_interval(10, 100, confidence=0.95)
    assert (high - low) < (high95 - low95)


def test_bisected_quantiles_are_memoized():
    """Regression: every out-of-table confidence re-ran a 200-step bisection;
    streaming aggregation asks per checkpoint, so computed values are cached."""
    from repro.stats import intervals

    confidence = 0.9321
    intervals._Z_CACHE.pop(confidence, None)  # tolerate earlier in-process runs
    try:
        first = intervals._z_for_confidence(confidence)
        assert intervals._Z_CACHE[confidence] == first
        # Cache integrity: the memoized entry is exactly what a fresh
        # bisection yields, and a second call returns it unchanged.
        assert intervals._z_for_confidence(confidence) == first
        intervals._Z_CACHE.pop(confidence)
        assert intervals._z_for_confidence(confidence) == first
    finally:
        intervals._Z_CACHE.pop(confidence, None)
