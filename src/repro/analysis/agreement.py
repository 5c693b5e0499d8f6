"""Cross-test agreement analysis (experiment E5, paper §IV-B).

The paper compares its tests pairwise using the pair-difference test
statistic at a 99.9 % confidence level, per host: for each host, the series
of per-measurement reordering rates produced by two tests are paired by
campaign round, and the null hypothesis (the techniques agree) is supported
when the confidence interval of the mean difference contains zero.  The paper
reports, for each pair of tests, the fraction of hosts supporting the null.
:meth:`repro.analysis.streaming.StreamingSurvey.agreement` computes the
matrix; this module holds its table classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import format_table
from repro.core.prober import TestName
from repro.core.sample import Direction


@dataclass(frozen=True, slots=True)
class AgreementCell:
    """Agreement between two tests over the host population, one direction."""

    test_a: TestName
    test_b: TestName
    direction: Direction
    hosts_compared: int
    hosts_supporting_null: int

    @property
    def support_fraction(self) -> float:
        """Fraction of comparable hosts for which the two tests agree."""
        if self.hosts_compared == 0:
            return 0.0
        return self.hosts_supporting_null / self.hosts_compared

    def describe(self) -> str:
        """Render as ``a vs b (direction): x/y hosts agree``."""
        return (
            f"{self.test_a.value} vs {self.test_b.value} ({self.direction.value}): "
            f"{self.hosts_supporting_null}/{self.hosts_compared} hosts agree"
        )


@dataclass(slots=True)
class AgreementMatrix:
    """All pairwise agreement cells for one campaign."""

    confidence: float
    cells: list[AgreementCell] = field(default_factory=list)

    def cell_for(self, test_a: TestName, test_b: TestName, direction: Direction) -> Optional[AgreementCell]:
        """Look up one cell (order of the two tests does not matter)."""
        for cell in self.cells:
            if cell.direction is not direction:
                continue
            if {cell.test_a, cell.test_b} == {test_a, test_b}:
                return cell
        return None

    def to_table(self) -> str:
        """Render the whole matrix as a text table; a cell that compared no
        host shows ``-`` rather than 0 % agreement."""
        rows = [
            [
                cell.test_a.value,
                cell.test_b.value,
                cell.direction.value,
                cell.hosts_compared,
                cell.hosts_supporting_null,
                f"{cell.support_fraction:.0%}" if cell.hosts_compared else "-",
            ]
            for cell in self.cells
        ]
        return format_table(
            headers=["test A", "test B", "direction", "hosts", "agree", "fraction"],
            rows=rows,
            title=f"Pairwise agreement at {self.confidence:.1%} confidence",
        )
