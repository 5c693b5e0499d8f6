"""Empirical cumulative distribution functions.

Figure 5 of the paper is a CDF of per-path reordering rates; the analysis
layer builds it with :class:`EmpiricalCdf`, which also provides the series of
(value, cumulative fraction) points a plotting tool or the benchmark output
needs.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable

from repro.net.errors import AnalysisError


def quantile_index(q: float, n: int) -> int:
    """Index of the smallest order statistic v with CDF(v) >= q.

    The empirical CDF jumps to ``k / n`` at the k-th order statistic, so the
    answer is the ``ceil(q * n)``-th value (1-based).  ``round(q * n + 0.5)``
    is *not* equivalent: Python rounds half to even, so whenever ``q * n``
    lands on an exact integer (e.g. q=0.75, n=4) it overshoots by one.
    """
    if not 0.0 <= q <= 1.0:
        raise AnalysisError(f"quantile level out of range: {q}")
    if n < 1:
        raise AnalysisError("quantile of an empty sample is undefined")
    return max(0, min(n - 1, math.ceil(q * n) - 1))


class EmpiricalCdf:
    """The empirical CDF of a one-dimensional sample."""

    def __init__(self, values: Iterable[float]) -> None:
        self._values = sorted(float(v) for v in values)
        if not self._values:
            raise AnalysisError("cannot build a CDF from an empty sample")

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple[float, ...]:
        """The sorted underlying sample."""
        return tuple(self._values)

    def evaluate(self, x: float) -> float:
        """Return P(X <= x) under the empirical distribution."""
        return bisect_right(self._values, x) / len(self._values)

    def quantile(self, q: float) -> float:
        """Return the smallest sample value v with CDF(v) >= q."""
        return self._values[quantile_index(q, len(self._values))]

    def fraction_above(self, x: float) -> float:
        """Return P(X > x); e.g. the fraction of paths with any reordering is fraction_above(0)."""
        return 1.0 - self.evaluate(x)

    def points(self) -> list[tuple[float, float]]:
        """Return the staircase points (value, cumulative fraction) for plotting."""
        n = len(self._values)
        return [(value, (index + 1) / n) for index, value in enumerate(self._values)]

    def to_rows(self, precision: int = 6) -> list[str]:
        """Render the CDF points as tab-separated text rows."""
        return [f"{value:.{precision}f}\t{fraction:.4f}" for value, fraction in self.points()]
