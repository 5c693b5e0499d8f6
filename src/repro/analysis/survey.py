"""Survey-level statistics (experiment E6, paper §IV-B).

The paper reports which hosts each technique could be used against (the
dual-connection test was ruled out for 8 hosts behind load balancers and 9
hosts with constant-zero IPIDs) and that more than 15 % of measurements
contained at least one reordered sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import format_table
from repro.core.prober import TestName


@dataclass(slots=True)
class EligibilitySummary:
    """Host eligibility and measurement-level reordering prevalence.

    ``ineligible`` and ``eligible`` have an entry for each technique that
    produced at least one record.  A technique that never ran has none: its
    row prints ``-`` rather than claiming every host eligible for it.  A host
    counts as eligible for a technique only once it has a record for it, so
    a partial store does not claim the hosts of its unrun shards.
    """

    total_hosts: int
    ineligible: dict[TestName, int] = field(default_factory=dict)
    eligible: dict[TestName, int] = field(default_factory=dict)
    measurements_total: int = 0
    measurements_with_reordering: int = 0

    @property
    def fraction_measurements_with_reordering(self) -> float:
        """Fraction of successful measurements with >= 1 reordered sample."""
        if self.measurements_total == 0:
            return 0.0
        return self.measurements_with_reordering / self.measurements_total

    def eligible_hosts(self, test: TestName) -> Optional[int]:
        """Number of hosts usable by ``test``, or None if it never ran."""
        return self.eligible.get(test)

    def to_table(self) -> str:
        """Render the eligibility table."""
        rows = [
            [test.value, self.total_hosts, self.ineligible[test], self.eligible_hosts(test)]
            if test in self.ineligible
            else [test.value, self.total_hosts, "-", "-"]
            for test in TestName.all()
        ]
        table = format_table(
            headers=["test", "hosts", "ineligible", "eligible"],
            rows=rows,
            title="Host eligibility by technique",
        )
        suffix = (
            f"\nmeasurements={self.measurements_total} "
            f"with reordering={self.measurements_with_reordering} "
            f"({self.fraction_measurements_with_reordering:.1%})"
        )
        return table + suffix


def summarize_eligibility(campaign) -> EligibilitySummary:
    """Summarise host eligibility and measurement-level reordering prevalence.

    Accepts a :class:`~repro.core.campaign.CampaignResult` or a campaign
    :class:`~repro.api.envelope.ResultEnvelope` straight from a session; the
    table is :meth:`~repro.analysis.streaming.StreamingSurvey.eligibility`
    of one pass over its records.
    """
    from repro.analysis.streaming import stream_survey
    from repro.api.envelope import unwrap_result

    result = unwrap_result(campaign)
    return stream_survey(result.records, result.host_addresses).eligibility()
