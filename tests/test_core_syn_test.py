"""Tests for the SYN Test."""

from __future__ import annotations

from repro.core.sample import Direction, SampleOutcome
from repro.core.syn_test import SynTest
from repro.host.os_profiles import FREEBSD_44, ODDBALL_DUAL_RST, ODDBALL_SILENT_SYN, SPEC_STRICT
from repro.net.flow import parse_address
from repro.workloads.testbed import HostSpec, PathSpec, Testbed


def _testbed(profile=FREEBSD_44, backends: int = 0, forward: float = 0.0, reverse: float = 0.0, seed: int = 7):
    testbed = Testbed(seed=seed)
    address = parse_address("10.4.0.2")
    testbed.add_site(
        HostSpec(
            name="target",
            address=address,
            profile=profile,
            path=PathSpec(
                forward_swap_probability=forward,
                reverse_swap_probability=reverse,
                propagation_delay=0.002,
            ),
            load_balancer_backends=backends,
        )
    )
    return testbed, address


def test_clean_path_reports_no_reordering():
    testbed, address = _testbed()
    result = SynTest(testbed.probe, address).run(num_samples=20)
    assert result.reordering_rate(Direction.FORWARD) == 0.0
    assert result.reordering_rate(Direction.REVERSE) == 0.0


def test_detects_reordering_and_matches_ground_truth():
    testbed, address = _testbed(forward=0.25, reverse=0.2)
    result = SynTest(testbed.probe, address).run(num_samples=80)
    assert result.reordering_rate(Direction.FORWARD) > 0.05
    assert result.reordering_rate(Direction.REVERSE) > 0.02
    handle = testbed.site("target")
    for sample in result.samples:
        if sample.forward.is_valid() and len(sample.probe_uids) == 2:
            truth = handle.forward_trace.was_exchanged(*sample.probe_uids)
            if truth is not None:
                assert (sample.forward is SampleOutcome.REORDERED) == truth


def test_works_behind_a_load_balancer():
    # The SYN pair shares one four-tuple, so a per-flow load balancer always
    # delivers both SYNs to the same backend and the test keeps working.
    testbed, address = _testbed(backends=4, forward=0.2)
    result = SynTest(testbed.probe, address).run(num_samples=40)
    assert result.valid_samples(Direction.FORWARD) == 40
    assert result.reordering_rate(Direction.FORWARD) > 0.0


def test_spec_compliant_stack_still_classifiable():
    testbed, address = _testbed(profile=SPEC_STRICT, forward=0.3)
    result = SynTest(testbed.probe, address).run(num_samples=40)
    assert result.valid_samples(Direction.FORWARD) == 40


def test_dual_rst_stack_still_classifiable():
    testbed, address = _testbed(profile=ODDBALL_DUAL_RST, forward=0.2)
    result = SynTest(testbed.probe, address).run(num_samples=30)
    assert result.valid_samples(Direction.FORWARD) == 30


def test_silent_second_syn_stack_gives_forward_only():
    testbed, address = _testbed(profile=ODDBALL_SILENT_SYN)
    result = SynTest(testbed.probe, address).run(num_samples=10)
    # Forward classification still works from the SYN/ACK, but with no second
    # response the reverse path cannot be classified.
    assert result.valid_samples(Direction.FORWARD) == 10
    assert result.valid_samples(Direction.REVERSE) == 0
    assert all(sample.reverse is SampleOutcome.AMBIGUOUS for sample in result.samples)


def test_unreachable_host_yields_lost_samples():
    testbed, _address = _testbed()
    result = SynTest(testbed.probe, parse_address("203.0.113.50"), sample_timeout=0.3).run(num_samples=5)
    assert result.sample_count() == 5
    assert all(sample.forward is SampleOutcome.LOST for sample in result.samples)


def test_connections_are_cleaned_up_politely():
    testbed, address = _testbed()
    SynTest(testbed.probe, address, polite=True).run(num_samples=10)
    handle = testbed.site("target")
    # No half-open connections are left behind on the server.
    assert not handle.hosts[0].tcp.connections
