"""Tests for the sample model and the reordering metrics."""

from __future__ import annotations

import pytest

from repro.core.metrics import (
    count_exchanges,
    exchange_metric,
    n_reordering,
    reordered_packet_ratio,
    reordering_extent,
    reordering_rate,
    sequence_reordering_probability,
)
from repro.core.sample import Direction, MeasurementResult, ReorderSample, SampleOutcome
from repro.net.errors import AnalysisError


def _sample(index: int, forward: SampleOutcome, reverse: SampleOutcome) -> ReorderSample:
    return ReorderSample(index=index, time=float(index), spacing=0.0, forward=forward, reverse=reverse)


def _result(outcomes: list[tuple[SampleOutcome, SampleOutcome]]) -> MeasurementResult:
    result = MeasurementResult(test_name="t", host_address=1, start_time=0.0, end_time=1.0)
    for index, (forward, reverse) in enumerate(outcomes):
        result.add(_sample(index, forward, reverse))
    return result


def test_sample_outcome_validity():
    assert SampleOutcome.IN_ORDER.is_valid()
    assert SampleOutcome.REORDERED.is_valid()
    assert not SampleOutcome.AMBIGUOUS.is_valid()
    assert not SampleOutcome.LOST.is_valid()


def test_measurement_result_counts_and_rates():
    result = _result(
        [
            (SampleOutcome.IN_ORDER, SampleOutcome.IN_ORDER),
            (SampleOutcome.REORDERED, SampleOutcome.IN_ORDER),
            (SampleOutcome.AMBIGUOUS, SampleOutcome.REORDERED),
            (SampleOutcome.LOST, SampleOutcome.LOST),
        ]
    )
    assert result.sample_count() == 4
    assert result.valid_samples(Direction.FORWARD) == 2
    assert result.reordered_samples(Direction.FORWARD) == 1
    assert result.reordering_rate(Direction.FORWARD) == pytest.approx(0.5)
    assert result.sample_count() - result.valid_samples(Direction.FORWARD) == 2
    assert result.reordering_rate(Direction.REVERSE) == pytest.approx(1.0 / 3.0)
    assert result.has_reordering()
    estimate = result.estimate(Direction.FORWARD)
    assert estimate is not None and estimate.trials == 2
    assert "samples" in result.describe()


def test_measurement_result_no_valid_samples():
    result = _result([(SampleOutcome.LOST, SampleOutcome.AMBIGUOUS)])
    assert result.reordering_rate(Direction.FORWARD) is None
    assert result.estimate(Direction.FORWARD) is None
    assert not result.has_reordering()


def test_count_exchanges_matches_inversions():
    assert count_exchanges([1, 2, 3], [1, 2, 3]) == 0
    assert count_exchanges([1, 2, 3], [2, 1, 3]) == 1
    assert count_exchanges([1, 2, 3], [3, 2, 1]) == 3
    # Lost packets are ignored.
    assert count_exchanges([1, 2, 3, 4], [4, 1]) == 1


def test_exchange_metric_pools_results():
    results = [
        _result([(SampleOutcome.REORDERED, SampleOutcome.IN_ORDER)] * 2),
        _result([(SampleOutcome.IN_ORDER, SampleOutcome.IN_ORDER)] * 6),
    ]
    pooled = exchange_metric(results, Direction.FORWARD)
    assert pooled is not None
    assert pooled.rate == pytest.approx(0.25)
    assert exchange_metric([], Direction.FORWARD) is None


def test_reordering_rate_wrapper():
    result = _result([(SampleOutcome.REORDERED, SampleOutcome.IN_ORDER)] * 4)
    estimate = reordering_rate(result, Direction.FORWARD)
    assert estimate is not None
    assert estimate.rate == pytest.approx(1.0)
    assert "forward" in estimate.describe()


def test_sequence_reordering_probability():
    assert sequence_reordering_probability(0.0, 10) == 0.0
    assert sequence_reordering_probability(1.0, 2) == 1.0
    assert sequence_reordering_probability(0.1, 3) == pytest.approx(1 - 0.81)
    with pytest.raises(AnalysisError):
        sequence_reordering_probability(0.5, 1)
    with pytest.raises(AnalysisError):
        sequence_reordering_probability(1.5, 3)


def test_rfc4737_style_metrics():
    expected = [0, 1, 2, 3, 4]
    in_order = [0, 1, 2, 3, 4]
    one_late = [1, 0, 2, 3, 4]
    very_late = [1, 2, 3, 4, 0]
    assert reordered_packet_ratio(expected, in_order) == 0.0
    assert reordered_packet_ratio(expected, one_late) == pytest.approx(0.2)
    assert reordering_extent(expected, one_late) == [0, 1, 0, 0, 0]
    assert n_reordering(expected, very_late) == 4
    assert n_reordering(expected, in_order) == 0
    with pytest.raises(AnalysisError):
        reordered_packet_ratio(expected, [])
    with pytest.raises(AnalysisError):
        reordered_packet_ratio(expected, [99])
