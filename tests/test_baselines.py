"""Tests for the Paxson and Bennett baseline methodologies."""

from __future__ import annotations

import pytest

from repro.baselines.bennett import BennettProbe, BennettSummary, sack_blocks_needed
from repro.baselines.paxson import PaxsonStudy
from repro.net.errors import MeasurementError
from repro.net.flow import parse_address
from repro.sim.build import IcmpPolicerSpec
from repro.workloads.testbed import HostSpec, PathSpec, Testbed


def _testbed(
    reverse: float = 0.0, forward: float = 0.0, icmp: bool = True, seed: int = 55, forward_conditions=()
):
    testbed = Testbed(seed=seed)
    address = parse_address("10.9.0.2")
    testbed.add_site(
        HostSpec(
            name="target",
            address=address,
            path=PathSpec(
                forward_swap_probability=forward,
                reverse_swap_probability=reverse,
                propagation_delay=0.002,
                forward_conditions=forward_conditions,
            ),
            web_object_size=32 * 1024,
            icmp_enabled=icmp,
        )
    )
    return testbed, address


def test_paxson_clean_path_sees_no_reordering():
    testbed, address = _testbed()
    summary = PaxsonStudy(testbed.probe).run([address], sessions_per_host=2)
    assert summary.session_count() == 2
    assert summary.sessions_with_reordering().rate == 0.0
    assert summary.packet_reordering_fraction().rate == 0.0


def test_paxson_detects_reordering_sessions_and_packets():
    testbed, address = _testbed(reverse=0.2)
    summary = PaxsonStudy(testbed.probe).run([address], sessions_per_host=3)
    assert summary.sessions_with_reordering().rate > 0.0
    assert 0.0 < summary.packet_reordering_fraction().rate < 1.0


def test_paxson_validates_arguments():
    testbed, address = _testbed()
    with pytest.raises(MeasurementError):
        PaxsonStudy(testbed.probe).run([address], sessions_per_host=0)


def test_sack_blocks_metric():
    assert sack_blocks_needed([]) == 0
    assert sack_blocks_needed([0, 1, 2, 3]) == 0
    # One packet overtaken: at its arrival one block of above-gap data exists.
    assert sack_blocks_needed([1, 0, 2]) == 1
    # Two separate gaps above the cumulative point need two blocks.
    assert sack_blocks_needed([1, 3, 0, 2]) == 2


def test_bennett_clean_path():
    testbed, address = _testbed()
    probe = BennettProbe(testbed.probe, burst_size=5)
    summary = probe.run(address, bursts=10)
    assert summary.burst_count() == 10
    assert summary.bursts_with_reordering().rate == 0.0
    assert summary.loss_fraction() == 0.0
    assert summary.mean_sack_blocks() == 0.0


def test_bennett_detects_reordering_but_cannot_attribute_direction():
    forward_only, address = _testbed(forward=0.3, seed=66)
    summary_forward = BennettProbe(forward_only.probe, burst_size=5).run(address, bursts=30)
    reverse_only, address = _testbed(reverse=0.3, seed=67)
    summary_reverse = BennettProbe(reverse_only.probe, burst_size=5).run(address, bursts=30)
    # Both look the same to the ICMP methodology: reordering is visible but
    # the test cannot tell which path produced it.
    assert summary_forward.bursts_with_reordering().rate > 0.0
    assert summary_reverse.bursts_with_reordering().rate > 0.0


def test_bennett_rate_limited_host_loses_samples():
    # An ICMP rate limiter on the site's forward path.
    testbed, address = _testbed(forward_conditions=(IcmpPolicerSpec(rate_per_second=2.0, burst=2),))
    probe = BennettProbe(testbed.probe, burst_size=5, reply_timeout=0.5)
    summary = probe.run(address, bursts=4, inter_burst_gap=0.05)
    assert summary.loss_fraction() > 0.3


def test_bennett_validates_arguments():
    testbed, _address = _testbed()
    with pytest.raises(MeasurementError):
        BennettProbe(testbed.probe, burst_size=1)
    probe = BennettProbe(testbed.probe)
    with pytest.raises(MeasurementError):
        probe.run(parse_address("10.9.0.2"), bursts=0)
    empty = BennettSummary()
    with pytest.raises(MeasurementError):
        empty.bursts_with_reordering()
