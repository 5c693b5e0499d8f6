"""Binomial proportion estimates and confidence intervals.

Every reordering rate reported by the library is an estimated binomial
proportion (reordered samples out of valid samples); the Wilson score
interval is used by default because it behaves sensibly at the small counts
and extreme proportions typical of reordering measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.net.errors import AnalysisError

_Z_TABLE = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.98: 2.3263478740408408,
    0.99: 2.5758293035489004,
    0.995: 2.807033768343811,
    0.999: 3.290526731491926,
}


# Bisected quantiles are memoized here so streaming aggregation (which asks
# for the same handful of confidence levels once per checkpoint) never pays
# the 200-iteration bisection more than once per level.
_Z_CACHE = dict(_Z_TABLE)


def _z_for_confidence(confidence: float) -> float:
    """Return the two-sided normal quantile for a confidence level."""
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1): {confidence}")
    cached = _Z_CACHE.get(confidence)
    if cached is not None:
        return cached
    # Acklam-style rational approximation of the normal inverse CDF is more
    # machinery than needed; a bisection over the error function is exact
    # enough and has no magic constants.
    target = 0.5 + confidence / 2.0
    low, high = 0.0, 10.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < target:
            low = mid
        else:
            high = mid
    z = (low + high) / 2.0
    _Z_CACHE[confidence] = z
    return z


@dataclass(frozen=True, slots=True)
class BinomialEstimate:
    """An estimated proportion with its confidence interval."""

    successes: int
    trials: int
    rate: float
    ci_low: float
    ci_high: float
    confidence: float

    def describe(self) -> str:
        """Render the estimate as ``rate [low, high] (k/n)``."""
        return (
            f"{self.rate:.4f} [{self.ci_low:.4f}, {self.ci_high:.4f}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Return the Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise AnalysisError("Wilson interval requires at least one trial")
    if not 0 <= successes <= trials:
        raise AnalysisError(f"successes out of range: {successes}/{trials}")
    z = _z_for_confidence(confidence)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    # The Wilson interval provably contains the point estimate; clamp so
    # floating-point rounding at the extremes (e.g. successes == 0, where
    # center and margin are mathematically equal) cannot violate that.
    low = max(0.0, min(center - margin, p_hat))
    high = min(1.0, max(center + margin, p_hat))
    return low, high


def binomial_estimate(successes: int, trials: int, confidence: float = 0.95) -> BinomialEstimate:
    """Build a :class:`BinomialEstimate` using the Wilson interval."""
    low, high = wilson_interval(successes, trials, confidence)
    return BinomialEstimate(
        successes=successes,
        trials=trials,
        rate=successes / trials,
        ci_low=low,
        ci_high=high,
        confidence=confidence,
    )
