"""Figure-series builders (experiments E2, E3, E4).

Each builder returns the data series behind a figure of the paper — not a
rendered plot, but the (x, y) rows a plotting tool or the benchmark output
prints — together with the headline statistics the paper quotes about that
figure.  Figure 5 aggregates the whole survey, so
:meth:`repro.analysis.streaming.StreamingSurvey.fig5` builds its data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.campaign import CampaignResult
from repro.core.prober import TestName
from repro.core.sample import Direction
from repro.core.timeseries import SpacingSweepResult
from repro.net.errors import AnalysisError
from repro.stats.cdf import EmpiricalCdf


@dataclass(slots=True)
class Fig5Data:
    """Figure 5: CDF of per-path reordering rates."""

    direction: Direction
    test: TestName
    per_path_rates: dict[int, float]
    cdf: Optional[EmpiricalCdf]

    @property
    def fraction_with_reordering(self) -> float:
        """Fraction of measured paths whose mean rate is non-zero."""
        if not self.per_path_rates:
            return 0.0
        return sum(1 for rate in self.per_path_rates.values() if rate > 0.0) / len(self.per_path_rates)

    def rows(self) -> list[tuple[float, float]]:
        """Return the CDF staircase points."""
        if self.cdf is None:
            return []
        return self.cdf.points()


@dataclass(slots=True)
class Fig6Data:
    """Figure 6: per-measurement forward reordering rate for one host, two tests."""

    host_address: int
    series: dict[TestName, list[tuple[float, float]]] = field(default_factory=dict)

    def mean_rate(self, test: TestName) -> Optional[float]:
        """Mean of one test's series, or None if it produced nothing."""
        points = self.series.get(test, [])
        if not points:
            return None
        return sum(rate for _time, rate in points) / len(points)

    def rows(self) -> list[tuple[float, str, float]]:
        """Return (time, test name, rate) rows interleaved across the tests."""
        rows = []
        for test, points in self.series.items():
            for time, rate in points:
                rows.append((time, test.value, rate))
        rows.sort(key=lambda row: row[0])
        return rows


def build_fig6_series(
    campaign: CampaignResult,
    host_address: int,
    tests: Sequence[TestName] = (TestName.SINGLE_CONNECTION, TestName.SYN),
    direction: Direction = Direction.FORWARD,
) -> Fig6Data:
    """Build the Figure 6 comparison series for one (load-balanced) host:
    each test's (time, rate) points, skipping measurements without a rate."""
    data = Fig6Data(host_address=host_address)
    for test in tests:
        points = data.series[test] = []
        for record in campaign.records:
            if record.host_address == host_address and record.test is test:
                rate = record.report.rate(direction)
                if rate is not None:
                    points.append((record.time, rate))
    return data


@dataclass(slots=True)
class Fig7Data:
    """Figure 7: reordering probability versus inter-packet spacing."""

    sweep: SpacingSweepResult

    def rows(self) -> list[tuple[float, float]]:
        """Return (spacing in microseconds, rate) rows."""
        return [(spacing * 1e6, rate) for spacing, rate in self.sweep.rates()]

    def back_to_back_rate(self) -> float:
        """The measured rate at zero (or minimum) spacing."""
        if not self.sweep.points:
            raise AnalysisError("spacing sweep produced no points")
        return self.sweep.points[0].rate

    def rate_beyond(self, spacing: float) -> Optional[float]:
        """The mean rate over all points at or beyond ``spacing`` seconds."""
        rates = [point.rate for point in self.sweep.points if point.spacing >= spacing]
        if not rates:
            return None
        return sum(rates) / len(rates)

    def decay_spacing(self, fraction: float = 0.2) -> Optional[float]:
        """First spacing where the rate falls below ``fraction`` of the
        back-to-back rate (the paper's curve falls below 2/10 by ~50 us)."""
        baseline = self.back_to_back_rate()
        if baseline <= 0.0:
            return None
        threshold = baseline * fraction
        for point in self.sweep.points[1:]:
            if point.rate <= threshold:
                return point.spacing
        return None


def build_fig7_series(sweep: SpacingSweepResult) -> Fig7Data:
    """Wrap a spacing sweep in the Figure 7 accessor object."""
    return Fig7Data(sweep=sweep)
