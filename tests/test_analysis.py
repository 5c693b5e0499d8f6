"""Tests for the analysis layer: tables, figure series, agreement, survey."""

from __future__ import annotations

import pytest

from repro.analysis.figures import build_fig6_series, build_fig7_series
from repro.analysis.report import format_table
from repro.analysis.streaming import stream_survey
from repro.analysis.survey import summarize_eligibility
from repro.analysis.validation import validation_table
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.dual_connection import DualConnectionTest
from repro.core.prober import TestName
from repro.core.sample import Direction
from repro.core.timeseries import SpacingSweep
from repro.host.os_profiles import LINUX_24
from repro.net.flow import parse_address
from repro.workloads.testbed import HostSpec, PathSpec, StripingSpec, Testbed
from repro.workloads.validation import ValidationCell, ValidationSummary, run_validation_cell
from _analysis_oracle import rates_for


@pytest.fixture(scope="module")
def survey_campaign():
    """A small campaign over three diverse hosts, reused across analysis tests."""
    testbed = Testbed(seed=91)
    testbed.add_site(
        HostSpec(
            name="reordering",
            address=parse_address("10.10.0.2"),
            path=PathSpec(forward_swap_probability=0.2, reverse_swap_probability=0.1, propagation_delay=0.002),
            web_object_size=8 * 1024,
        )
    )
    testbed.add_site(
        HostSpec(
            name="clean",
            address=parse_address("10.10.0.3"),
            path=PathSpec(propagation_delay=0.002),
            web_object_size=8 * 1024,
        )
    )
    testbed.add_site(
        HostSpec(
            name="zero-ipid",
            address=parse_address("10.10.0.4"),
            profile=LINUX_24,
            path=PathSpec(forward_swap_probability=0.05, propagation_delay=0.002),
            web_object_size=8 * 1024,
        )
    )
    config = CampaignConfig(
        rounds=4,
        samples_per_measurement=10,
        tests=(TestName.SINGLE_CONNECTION, TestName.DUAL_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.2,
        inter_round_gap=1.0,
    )
    campaign = Campaign(testbed.probe, testbed.addresses(), config)
    return testbed, campaign.run()


@pytest.fixture(scope="module")
def survey(survey_campaign):
    _testbed, campaign = survey_campaign
    return stream_survey(campaign.records, campaign.host_addresses)


def test_format_table_alignment():
    text = format_table(["a", "long header"], [["x", 1], ["yy", 22]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long header" in lines[2]
    assert len(lines) == 6


def test_fig5_cdf(survey_campaign, survey):
    testbed, _campaign = survey_campaign
    fig5 = survey.fig5(TestName.SINGLE_CONNECTION, Direction.FORWARD)
    assert set(fig5.per_path_rates) == set(testbed.addresses())
    assert fig5.cdf is not None
    assert 0.0 < fig5.fraction_with_reordering <= 1.0
    rows = fig5.rows()
    assert rows[-1][1] == pytest.approx(1.0)
    reordering_rate = fig5.per_path_rates[testbed.address_of("reordering")]
    clean_rate = fig5.per_path_rates[testbed.address_of("clean")]
    assert reordering_rate > clean_rate


def test_fig6_series(survey_campaign):
    testbed, campaign = survey_campaign
    address = testbed.address_of("reordering")
    fig6 = build_fig6_series(campaign, address)
    assert set(fig6.series) == {TestName.SINGLE_CONNECTION, TestName.SYN}
    assert len(fig6.series[TestName.SYN]) == 4
    mean_single = fig6.mean_rate(TestName.SINGLE_CONNECTION)
    mean_syn = fig6.mean_rate(TestName.SYN)
    assert mean_single is not None and mean_syn is not None
    assert abs(mean_single - mean_syn) < 0.25
    assert len(fig6.rows()) == 8
    for test in fig6.series:
        assert fig6.series[test] == rates_for(campaign, address, test, Direction.FORWARD)


def test_fig7_series():
    testbed = Testbed(seed=92)
    address = parse_address("10.11.0.2")
    testbed.add_site(
        HostSpec(
            name="striped",
            address=address,
            path=PathSpec(
                propagation_delay=0.001,
                access_bandwidth_bps=None,
                forward_striping=StripingSpec(queue_imbalance_scale=30e-6),
            ),
        )
    )
    sweep = SpacingSweep(
        test_factory=lambda: DualConnectionTest(testbed.probe, address, validate_ipid=False),
        direction=Direction.FORWARD,
        samples_per_point=100,
    ).run([0.0, 100e-6, 300e-6])
    fig7 = build_fig7_series(sweep)
    assert fig7.back_to_back_rate() > 0.0
    assert fig7.rate_beyond(300e-6) <= fig7.back_to_back_rate()
    assert len(fig7.rows()) == 3
    assert fig7.rows()[0][0] == 0.0


def test_agreement_matrix(survey):
    matrix = survey.agreement(
        pairs=[(TestName.SINGLE_CONNECTION, TestName.SYN)],
        directions=(Direction.FORWARD, Direction.REVERSE),
        min_pairs=3,
    )
    assert len(matrix.cells) == 2
    cell = matrix.cell_for(TestName.SINGLE_CONNECTION, TestName.SYN, Direction.FORWARD)
    assert cell is not None
    assert cell.hosts_compared >= 2
    assert 0.0 <= cell.support_fraction <= 1.0
    assert "vs" in cell.describe()
    assert "Pairwise agreement" in matrix.to_table()


def test_agreement_table_shows_no_fraction_for_a_cell_that_compared_no_host(survey):
    # Four rounds are fewer than min_pairs=5, so no host can be compared.
    matrix = survey.agreement(pairs=[(TestName.SINGLE_CONNECTION, TestName.SYN)], min_pairs=5)
    assert [cell.hosts_compared for cell in matrix.cells] == [0, 0]
    rows = matrix.to_table().splitlines()[4:]
    assert [row.split()[-3:] for row in rows] == [["0", "0", "-"], ["0", "0", "-"]]


def test_agreement_skips_data_transfer_forward(survey):
    matrix = survey.agreement(pairs=[(TestName.SINGLE_CONNECTION, TestName.DATA_TRANSFER)])
    directions = {cell.direction for cell in matrix.cells}
    assert Direction.FORWARD not in directions


def test_survey_eligibility(survey_campaign):
    testbed, campaign = survey_campaign
    summary = summarize_eligibility(campaign)
    assert summary.total_hosts == 3
    assert summary.ineligible[TestName.DUAL_CONNECTION] >= 1
    assert summary.eligible_hosts(TestName.SINGLE_CONNECTION) == 3
    assert summary.measurements_total > 0
    assert 0.0 < summary.fraction_measurements_with_reordering <= 1.0
    assert "eligibility" in summary.to_table().lower()


def test_eligibility_leaves_a_technique_that_never_ran_unclaimed(survey_campaign):
    # The campaign runs single-connection, dual-connection and SYN only, so
    # no host was ever shown eligible for the data-transfer test.
    _testbed, campaign = survey_campaign
    summary = summarize_eligibility(campaign)
    assert TestName.DATA_TRANSFER not in summary.ineligible
    assert summary.eligible_hosts(TestName.DATA_TRANSFER) is None
    rows = {line.split()[0]: line.split()[1:] for line in summary.to_table().splitlines()[4:8]}
    assert rows["data-transfer"] == ["3", "-", "-"]
    assert rows["single-connection"] == ["3", "0", "3"]


def test_validation_table_rendering():
    summary = ValidationSummary()
    summary.add(run_validation_cell(ValidationCell(TestName.SYN, 0.05, 0.05, samples=30), seed=3))
    text = validation_table(summary)
    assert "Controlled validation" in text
    assert "sample accuracy" in text
