"""The cross-scenario comparison table.

Every record carries the scenario stamp of the campaign or matrix cell that
measured it, so :class:`~repro.analysis.streaming.StreamingSurvey` keeps one
sub-survey per stamp (:meth:`~repro.analysis.streaming.StreamingSurvey.scenario_slices`).
:meth:`~repro.analysis.streaming.StreamingSurvey.comparison` lines the
slices up side by side — eligibility, reordering prevalence and per-path rate
headline numbers — the "is the methodology robust across pathologies" view
the paper argues for in §IV-B.  This module holds the table classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.figures import Fig5Data
from repro.analysis.report import format_table
from repro.analysis.survey import EligibilitySummary
from repro.core.prober import TestName
from repro.core.sample import Direction


@dataclass(slots=True)
class ScenarioSliceSummary:
    """One scenario's headline numbers within a sweep."""

    scenario: str
    eligibility: EligibilitySummary
    fig5: Fig5Data

    @property
    def hosts(self) -> int:
        return self.eligibility.total_hosts

    @property
    def mean_path_rate(self) -> Optional[float]:
        rates = self.fig5.per_path_rates
        if not rates:
            return None
        return sum(rates.values()) / len(rates)

    @property
    def dual_connection_eligible(self) -> Optional[int]:
        """Hosts usable by the dual-connection test, or None if it never ran."""
        return self.eligibility.eligible_hosts(TestName.DUAL_CONNECTION)


@dataclass(slots=True)
class ScenarioComparison:
    """Side-by-side scenario summaries, in observation order."""

    test: TestName
    direction: Direction
    slices: list[ScenarioSliceSummary]

    def to_table(self) -> str:
        """Render the cross-scenario comparison table."""
        rows = []
        for item in self.slices:
            mean_rate = item.mean_path_rate
            dual_eligible = item.dual_connection_eligible
            rows.append(
                [
                    item.scenario,
                    item.hosts,
                    item.eligibility.measurements_total,
                    f"{item.eligibility.fraction_measurements_with_reordering:.1%}",
                    f"{item.fig5.fraction_with_reordering:.1%}",
                    "-" if mean_rate is None else f"{mean_rate:.4f}",
                    "-" if dual_eligible is None else dual_eligible,
                ]
            )
        return format_table(
            headers=[
                "scenario",
                "hosts",
                "measurements",
                "reordered meas.",
                "paths reordering",
                "mean path rate",
                "dual-conn eligible",
            ],
            rows=rows,
            title=f"Scenario comparison ({self.test.value}, {self.direction.value})",
        )
