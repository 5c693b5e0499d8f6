"""Time-domain characterisation of the reordering process (paper §IV-C, Fig. 7).

The packet-pair tests accept an inter-packet spacing parameter; sweeping the
spacing and estimating the exchange probability at each point yields the
reordering probability as a function of time — the distribution the paper
argues is strictly more useful than a scalar rate, because it lets one
predict the impact on any protocol's packet spacing without a bespoke test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol, Sequence

from repro.core.sample import Direction, MeasurementResult
from repro.net.errors import MeasurementError
from repro.stats.intervals import BinomialEstimate, binomial_estimate


class SpacingAwareTest(Protocol):
    """A measurement technique that accepts an inter-packet spacing."""

    def run(self, num_samples: int, spacing: float = 0.0) -> MeasurementResult:
        """Collect samples with the requested spacing."""


@dataclass(frozen=True, slots=True)
class SpacingPoint:
    """The estimated exchange probability at one inter-packet spacing."""

    spacing: float
    estimate: BinomialEstimate

    @property
    def rate(self) -> float:
        """Point estimate of the reordering probability at this spacing."""
        return self.estimate.rate

    def describe(self) -> str:
        """Render as ``<spacing us>  <rate>``."""
        return f"{self.spacing * 1e6:8.1f} us  {self.estimate.describe()}"


@dataclass(slots=True)
class SpacingSweepResult:
    """The full measured spacing-vs-reordering-probability curve."""

    direction: Direction
    points: list[SpacingPoint] = field(default_factory=list)

    def add(self, point: SpacingPoint) -> None:
        """Append one measured point."""
        self.points.append(point)

    def rates(self) -> list[tuple[float, float]]:
        """Return (spacing seconds, rate) pairs in sweep order."""
        return [(point.spacing, point.rate) for point in self.points]

    def half_life(self) -> Optional[float]:
        """Return the first spacing at which the rate drops below half the
        back-to-back rate, or None if it never does within the sweep."""
        if not self.points:
            return None
        baseline = self.points[0].rate
        if baseline <= 0.0:
            return None
        for point in self.points[1:]:
            if point.rate <= baseline / 2.0:
                return point.spacing
        return None

    def to_rows(self) -> list[str]:
        """Render the curve as tab-separated ``spacing_us<TAB>rate`` rows."""
        return [f"{point.spacing * 1e6:.1f}\t{point.rate:.5f}" for point in self.points]


def coarse_spacing_grid(maximum: float = 300e-6, step: float = 25e-6) -> list[float]:
    """A coarser grid suitable for quick experiments and CI-sized benchmarks."""
    grid: list[float] = []
    value = 0.0
    while value <= maximum:
        grid.append(round(value, 9))
        value += step
    return grid


class SpacingSweep:
    """Runs a spacing sweep with a fresh test instance per point."""

    def __init__(
        self,
        test_factory: Callable[[], SpacingAwareTest],
        direction: Direction = Direction.FORWARD,
        samples_per_point: int = 100,
        confidence: float = 0.95,
    ) -> None:
        if samples_per_point < 1:
            raise MeasurementError(f"need at least one sample per point: {samples_per_point}")
        self.test_factory = test_factory
        self.direction = direction
        self.samples_per_point = samples_per_point
        self.confidence = confidence

    def run(self, spacings: Sequence[float]) -> SpacingSweepResult:
        """Measure the reordering probability at each requested spacing."""
        if not spacings:
            raise MeasurementError("spacing sweep requires at least one spacing value")
        sweep = SpacingSweepResult(direction=self.direction)
        for spacing in spacings:
            test = self.test_factory()
            measurement = test.run(self.samples_per_point, spacing=spacing)
            reordered = measurement.reordered_samples(self.direction)
            valid = measurement.valid_samples(self.direction)
            if valid == 0:
                estimate = binomial_estimate(0, 1, self.confidence)
            else:
                estimate = binomial_estimate(reordered, valid, self.confidence)
            sweep.add(SpacingPoint(spacing=spacing, estimate=estimate))
        return sweep
