"""Tests for the Single Connection Test."""

from __future__ import annotations

import pytest

from repro.core.sample import Direction, SampleOutcome
from repro.core.single_connection import SingleConnectionTest
from repro.host.os_profiles import LEGACY_DELAYED_ACK
from repro.net.errors import MeasurementError
from repro.net.flow import parse_address
from repro.workloads.testbed import HostSpec, PathSpec, Testbed


def test_clean_path_reports_no_reordering(clean_testbed):
    test = SingleConnectionTest(clean_testbed.probe, clean_testbed.address_of("target"))
    result = test.run(num_samples=20)
    assert result.sample_count() == 20
    assert result.reordering_rate(Direction.FORWARD) == 0.0
    assert result.reordering_rate(Direction.REVERSE) == 0.0
    assert result.valid_samples(Direction.FORWARD) == 20


def test_reordering_path_detected_and_matches_ground_truth(reordering_testbed):
    address = reordering_testbed.address_of("target")
    test = SingleConnectionTest(reordering_testbed.probe, address)
    result = test.run(num_samples=60)
    assert result.reordering_rate(Direction.FORWARD) > 0.0

    handle = reordering_testbed.site("target")
    for sample in result.samples:
        if not sample.forward.is_valid() or len(sample.probe_uids) != 2:
            continue
        truth = handle.forward_trace.was_exchanged(*sample.probe_uids)
        if truth is None:
            continue
        assert (sample.forward is SampleOutcome.REORDERED) == truth


def test_reverse_path_reordering_detected():
    testbed = Testbed(seed=404)
    address = parse_address("10.1.0.2")
    testbed.add_site(
        HostSpec(
            name="target",
            address=address,
            path=PathSpec(reverse_swap_probability=0.4, propagation_delay=0.002),
        )
    )
    test = SingleConnectionTest(testbed.probe, address)
    result = test.run(num_samples=60)
    assert result.reordering_rate(Direction.REVERSE) > 0.05
    assert result.reordering_rate(Direction.FORWARD) == 0.0


def test_forward_send_order_variant_also_works(reordering_testbed):
    address = reordering_testbed.address_of("target")
    test = SingleConnectionTest(reordering_testbed.probe, address, reversed_order=False)
    result = test.run(num_samples=40)
    assert result.valid_samples(Direction.FORWARD) > 0
    rate = result.reordering_rate(Direction.FORWARD)
    assert rate is not None and rate > 0.0


def test_losses_become_invalid_samples_not_errors(lossy_testbed):
    address = lossy_testbed.address_of("target")
    test = SingleConnectionTest(lossy_testbed.probe, address, sample_timeout=0.5)
    result = test.run(num_samples=40)
    assert result.sample_count() == 40
    # Loss produces ambiguous/lost samples but never crashes the test.
    assert 0 < result.sample_count() - result.valid_samples(Direction.FORWARD) < 40


def test_unreachable_host_reports_handshake_failure(clean_testbed):
    test = SingleConnectionTest(clean_testbed.probe, parse_address("203.0.113.77"))
    result = test.run(num_samples=5)
    assert result.sample_count() == 0
    assert result.notes == "handshake failed"


def test_requires_positive_sample_count(clean_testbed):
    test = SingleConnectionTest(clean_testbed.probe, clean_testbed.address_of("target"))
    with pytest.raises(MeasurementError):
        test.run(num_samples=0)


def test_legacy_delayed_ack_host_still_measurable_with_reversed_order():
    testbed = Testbed(seed=505)
    address = parse_address("10.1.0.2")
    testbed.add_site(
        HostSpec(
            name="target",
            address=address,
            profile=LEGACY_DELAYED_ACK,
            path=PathSpec(forward_swap_probability=0.2, propagation_delay=0.002),
        )
    )
    test = SingleConnectionTest(testbed.probe, address, sample_timeout=1.5)
    result = test.run(num_samples=30)
    # The reversed send order keeps the first acknowledgment immediate, so
    # forward classification still produces valid samples.
    assert result.valid_samples(Direction.FORWARD) > 20


def test_spacing_parameter_is_recorded(clean_testbed):
    test = SingleConnectionTest(clean_testbed.probe, clean_testbed.address_of("target"))
    result = test.run(num_samples=3, spacing=100e-6)
    assert result.spacing == pytest.approx(100e-6)
    assert all(sample.spacing == pytest.approx(100e-6) for sample in result.samples)
