"""Tests for the prober, campaign machinery, and spacing sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.figures import build_fig6_series
from repro.analysis.streaming import stream_survey
from repro.core.campaign import Campaign, CampaignConfig
from repro.core.prober import Prober, TestName
from repro.core.sample import Direction
from repro.core.timeseries import SpacingSweep, coarse_spacing_grid
from repro.core.dual_connection import DualConnectionTest
from repro.host.os_profiles import LINUX_24
from repro.net.errors import MeasurementError
from repro.net.flow import parse_address
from repro.workloads.testbed import HostSpec, PathSpec, StripingSpec, Testbed


def _small_world(seed: int = 61) -> Testbed:
    testbed = Testbed(seed=seed)
    testbed.add_site(
        HostSpec(
            name="reordering",
            address=parse_address("10.6.0.2"),
            path=PathSpec(forward_swap_probability=0.15, reverse_swap_probability=0.1, propagation_delay=0.002),
            web_object_size=8 * 1024,
        )
    )
    testbed.add_site(
        HostSpec(
            name="clean-linux24",
            address=parse_address("10.6.0.3"),
            profile=LINUX_24,
            path=PathSpec(propagation_delay=0.002),
            web_object_size=8 * 1024,
        )
    )
    return testbed


def test_prober_runs_each_technique(clean_testbed):
    prober = Prober(clean_testbed.probe, samples_per_measurement=5)
    address = clean_testbed.address_of("target")
    for test_name in TestName.all():
        report = prober.run(test_name, address)
        assert report.test is test_name
        assert report.succeeded, f"{test_name} failed: {report.error}"


def test_prober_records_ineligibility():
    testbed = _small_world()
    prober = Prober(testbed.probe, samples_per_measurement=5)
    report = prober.run(TestName.DUAL_CONNECTION, testbed.address_of("clean-linux24"))
    assert not report.succeeded
    assert report.ineligible
    assert report.rate(Direction.FORWARD) is None


def test_prober_unknown_host_is_an_error_report(clean_testbed):
    prober = Prober(clean_testbed.probe, samples_per_measurement=3)
    report = prober.run(TestName.SINGLE_CONNECTION, parse_address("203.0.113.1"))
    assert not report.succeeded
    assert report.error is not None


def test_campaign_round_robin_structure():
    testbed = _small_world()
    config = CampaignConfig(
        rounds=2,
        samples_per_measurement=4,
        tests=(TestName.SINGLE_CONNECTION, TestName.SYN),
        inter_measurement_gap=0.1,
        inter_round_gap=0.5,
    )
    campaign = Campaign(testbed.probe, testbed.addresses(), config)
    result = campaign.run()
    assert len(result.records) == 2 * 2 * 2  # rounds x hosts x tests
    survey = stream_survey(result.records, result.host_addresses)
    assert survey.measurements_total == 8
    assert survey.measurements_with_reordering >= 1

    rates = survey.path_rates(TestName.SINGLE_CONNECTION, Direction.FORWARD)
    assert set(rates) == set(testbed.addresses())
    reordering_addr = testbed.address_of("reordering")
    assert rates[reordering_addr] >= rates[testbed.address_of("clean-linux24")]

    points = build_fig6_series(result, reordering_addr, tests=(TestName.SYN,)).series[TestName.SYN]
    assert len(points) == 2
    times = [t for t, _r in points]
    assert times == sorted(times)


def test_campaign_ineligible_host_tracking():
    testbed = _small_world()
    config = CampaignConfig(rounds=1, samples_per_measurement=3, tests=(TestName.DUAL_CONNECTION,))
    result = Campaign(testbed.probe, testbed.addresses(), config).run()
    ineligible = stream_survey(result.records).ineligible_hosts(TestName.DUAL_CONNECTION)
    assert testbed.address_of("clean-linux24") in ineligible
    assert testbed.address_of("reordering") not in ineligible


def test_campaign_config_validation():
    with pytest.raises(MeasurementError):
        CampaignConfig(rounds=0)
    with pytest.raises(MeasurementError):
        CampaignConfig(samples_per_measurement=0)
    with pytest.raises(MeasurementError):
        Campaign(None, [], CampaignConfig())  # type: ignore[arg-type]


def test_spacing_grids():
    coarse = coarse_spacing_grid(maximum=100e-6, step=50e-6)
    assert coarse == [0.0, 50e-6, 100e-6]


def test_spacing_sweep_shows_decay_on_striped_path():
    testbed = Testbed(seed=71)
    address = parse_address("10.7.0.2")
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
        samples_per_point=120,
    )
    result = sweep.run([0.0, 300e-6])
    assert len(result.points) == 2
    assert result.points[0].rate > result.points[1].rate
    assert result.points[1].rate < 0.05
    rows = result.to_rows()
    assert len(rows) == 2 and "\t" in rows[0]


def test_spacing_sweep_validation(clean_testbed):
    sweep = SpacingSweep(
        test_factory=lambda: DualConnectionTest(clean_testbed.probe, clean_testbed.address_of("target")),
        samples_per_point=5,
    )
    with pytest.raises(MeasurementError):
        sweep.run([])
    with pytest.raises(MeasurementError):
        SpacingSweep(test_factory=lambda: None, samples_per_point=0)  # type: ignore[arg-type]
