"""The batch analysis path, kept as the oracle that pins the streaming fold.

:class:`repro.analysis.streaming.StreamingSurvey` is the only code in the
library that computes a §IV table.  Before it was, every table was also
computed in batch, straight from a materialized
:class:`~repro.core.campaign.CampaignResult`: per-(host, test) record
selections, eligibility, Figure 5's per-path rates, pairwise agreement, the
per-host grouping of the middlebox taxonomy and the cross-scenario
comparison.  That batch code lives on here, one function per old method or
helper, so the tests can check that one pass of the fold reproduces every
table exactly — including the floating-point per-path means.

The middlebox *rules* (:func:`repro.analysis.middlebox.diagnose`) and the
table classes are shared with the library; only the aggregation is
independent.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.analysis.agreement import AgreementCell, AgreementMatrix
from repro.analysis.figures import Fig5Data
from repro.analysis.middlebox import MiddleboxTaxonomy, diagnose
from repro.analysis.scenarios import ScenarioComparison, ScenarioSliceSummary
from repro.analysis.survey import EligibilitySummary
from repro.core.campaign import CampaignResult, HostRoundResult
from repro.core.prober import TestName
from repro.core.sample import Direction
from repro.net.errors import AnalysisError
from repro.stats.cdf import EmpiricalCdf
from repro.stats.pair_difference import paired_difference_test

# --------------------------------------------------------------------- #
# CampaignResult's former per-path accessors
# --------------------------------------------------------------------- #


def records_for(
    result: CampaignResult,
    host_address: Optional[int] = None,
    test: Optional[TestName] = None,
) -> list[HostRoundResult]:
    """Filter records by host and/or test."""
    return [
        record
        for record in result.records
        if (host_address is None or record.host_address == host_address)
        and (test is None or record.test == test)
    ]


def rates_for(
    result: CampaignResult, host_address: int, test: TestName, direction: Direction
) -> list[tuple[float, float]]:
    """(time, rate) points for one host/test/direction, skipping failures."""
    points = []
    for record in records_for(result, host_address, test):
        rate = record.report.rate(direction)
        if rate is not None:
            points.append((record.time, rate))
    return points


def mean_rate(
    result: CampaignResult, host_address: int, test: TestName, direction: Direction
) -> Optional[float]:
    """Mean of the per-measurement rates for one host/test/direction."""
    rates = [rate for _time, rate in rates_for(result, host_address, test, direction)]
    if not rates:
        return None
    return sum(rates) / len(rates)


def path_rates(result: CampaignResult, test: TestName, direction: Direction) -> dict[int, float]:
    """Per-host mean reordering rate for one technique and direction."""
    rates: dict[int, float] = {}
    for address in result.host_addresses:
        rate = mean_rate(result, address, test, direction)
        if rate is not None:
            rates[address] = rate
    return rates


def measurements_with_reordering(result: CampaignResult) -> int:
    """Number of measurements containing at least one reordered sample."""
    return sum(
        1
        for record in result.records
        if record.report.result is not None and record.report.result.has_reordering()
    )


def total_measurements(result: CampaignResult) -> int:
    """Number of measurements that produced samples."""
    return sum(1 for record in result.records if record.report.succeeded)


def ineligible_hosts(result: CampaignResult, test: TestName) -> set[int]:
    """Hosts ruled out for ``test``: any attempt failed an explicit
    eligibility check, or no attempt ever produced samples."""
    failed: set[int] = set()
    for address in result.host_addresses:
        records = records_for(result, address, test)
        if not records:
            continue
        if any(record.report.ineligible for record in records):
            failed.add(address)
        elif all(not record.report.succeeded for record in records):
            failed.add(address)
    return failed


# --------------------------------------------------------------------- #
# The batch helpers of the analysis package
# --------------------------------------------------------------------- #


def summarize_eligibility(result: CampaignResult) -> EligibilitySummary:
    """Eligibility per technique that produced a record, and prevalence."""
    summary = EligibilitySummary(total_hosts=len(result.host_addresses))
    for test in TestName.all():
        if records_for(result, test=test):
            probed = [address for address in result.host_addresses if records_for(result, address, test)]
            summary.ineligible[test] = len(ineligible_hosts(result, test))
            summary.eligible[test] = len(probed) - summary.ineligible[test]
    summary.measurements_total = total_measurements(result)
    summary.measurements_with_reordering = measurements_with_reordering(result)
    return summary


def build_fig5_cdf(
    result: CampaignResult,
    test: TestName = TestName.SINGLE_CONNECTION,
    direction: Direction = Direction.FORWARD,
) -> Fig5Data:
    """The Figure 5 CDF from a campaign's per-path mean rates."""
    rates = path_rates(result, test, direction)
    cdf = EmpiricalCdf(rates.values()) if rates else None
    return Fig5Data(direction=direction, test=test, per_path_rates=rates, cdf=cdf)


def _paired_rates(
    result: CampaignResult,
    host: int,
    test_a: TestName,
    test_b: TestName,
    direction: Direction,
) -> tuple[list[float], list[float]]:
    """Pair the two tests' per-round rates for one host by campaign round."""
    by_round_a: dict[int, float] = {}
    by_round_b: dict[int, float] = {}
    for record in records_for(result, host, test_a):
        rate = record.report.rate(direction)
        if rate is not None:
            by_round_a[record.round_index] = rate
    for record in records_for(result, host, test_b):
        rate = record.report.rate(direction)
        if rate is not None:
            by_round_b[record.round_index] = rate
    common = sorted(set(by_round_a) & set(by_round_b))
    return [by_round_a[r] for r in common], [by_round_b[r] for r in common]


def compute_agreement(
    result: CampaignResult,
    pairs: Optional[Sequence[tuple[TestName, TestName]]] = None,
    directions: Sequence[Direction] = (Direction.FORWARD, Direction.REVERSE),
    confidence: float = 0.999,
    min_pairs: int = 3,
) -> AgreementMatrix:
    """The pairwise agreement matrix over a campaign's hosts."""
    if pairs is None:
        tests = list(TestName.all())
        pairs = [(tests[i], tests[j]) for i in range(len(tests)) for j in range(i + 1, len(tests))]
    matrix = AgreementMatrix(confidence=confidence)
    for test_a, test_b in pairs:
        for direction in directions:
            if direction is Direction.FORWARD and TestName.DATA_TRANSFER in (test_a, test_b):
                continue
            compared = 0
            supporting = 0
            for host in result.host_addresses:
                series_a, series_b = _paired_rates(result, host, test_a, test_b, direction)
                if len(series_a) < min_pairs:
                    continue
                try:
                    test = paired_difference_test(series_a, series_b, confidence=confidence)
                except AnalysisError:
                    continue
                compared += 1
                if test.supports_null:
                    supporting += 1
            matrix.cells.append(
                AgreementCell(
                    test_a=test_a,
                    test_b=test_b,
                    direction=direction,
                    hosts_compared=compared,
                    hosts_supporting_null=supporting,
                )
            )
    return matrix


def classify_middleboxes(result: CampaignResult) -> MiddleboxTaxonomy:
    """Group every host's reports by test, then diagnose each host."""
    by_host: dict[int, dict[TestName, list]] = {}
    for record in result.records:
        by_host.setdefault(record.host_address, {}).setdefault(
            record.report.test, []
        ).append(record.report)
    taxonomy = MiddleboxTaxonomy(total_hosts=len(by_host))
    for address in sorted(by_host):
        errors = {
            test: [report.error for report in reports if report.error]
            for test, reports in by_host[address].items()
        }
        taxonomy.diagnoses.append(diagnose(address, errors))
    return taxonomy


def summarize_scenario_slice(
    name: str,
    result: CampaignResult,
    test: TestName = TestName.SINGLE_CONNECTION,
    direction: Direction = Direction.FORWARD,
) -> ScenarioSliceSummary:
    """One scenario's dataset: eligibility plus the Figure 5 view."""
    return ScenarioSliceSummary(
        scenario=name,
        eligibility=summarize_eligibility(result),
        fig5=build_fig5_cdf(result, test=test, direction=direction),
    )


def compare_scenarios(
    results: Mapping[str, CampaignResult],
    test: TestName = TestName.SINGLE_CONNECTION,
    direction: Direction = Direction.FORWARD,
) -> ScenarioComparison:
    """The cross-scenario comparison over named datasets, in input order."""
    slices = [
        summarize_scenario_slice(name, result, test=test, direction=direction)
        for name, result in results.items()
    ]
    return ScenarioComparison(test=test, direction=direction, slices=slices)
