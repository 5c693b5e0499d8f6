"""Tests for the TCP Data Transfer Test."""

from __future__ import annotations

import pytest

import repro.core.data_transfer as data_transfer
from repro.core.data_transfer import DataTransferTest
from repro.core.sample import Direction, SampleOutcome
from repro.host.raw_socket import ProbeHost
from repro.net.errors import MeasurementError
from repro.net.flow import parse_address
from repro.workloads.testbed import HostSpec, PathSpec, Testbed


def _testbed(object_size: int = 16 * 1024, reverse: float = 0.0, seed: int = 31):
    testbed = Testbed(seed=seed)
    address = parse_address("10.5.0.2")
    testbed.add_site(
        HostSpec(
            name="target",
            address=address,
            path=PathSpec(reverse_swap_probability=reverse, propagation_delay=0.002),
            web_object_size=object_size,
        )
    )
    return testbed, address


def test_transfer_yields_one_sample_per_segment_pair():
    testbed, address = _testbed(object_size=8 * 1024)
    test = DataTransferTest(testbed.probe, address, mss=512, advertised_window=2048)
    result = test.run()
    # 8 KiB at 512-byte segments is 16 segments -> 15 adjacent pairs.
    assert result.sample_count() == 15
    assert result.reordering_rate(Direction.REVERSE) == 0.0
    assert result.valid_samples(Direction.FORWARD) == 0


def test_forward_direction_is_never_classified():
    testbed, address = _testbed(object_size=4 * 1024)
    result = DataTransferTest(testbed.probe, address, mss=512).run()
    assert all(sample.forward is SampleOutcome.AMBIGUOUS for sample in result.samples)


def test_detects_reverse_reordering_matching_ground_truth():
    testbed, address = _testbed(object_size=16 * 1024, reverse=0.3)
    test = DataTransferTest(testbed.probe, address, mss=256, advertised_window=1024)
    result = test.run()
    assert result.reordering_rate(Direction.REVERSE) > 0.0
    handle = testbed.site("target")
    for sample in result.samples:
        if len(sample.response_uids) != 2:
            continue
        egress = handle.reverse_trace.arrival_order(sample.response_uids)
        if len(egress) != 2:
            continue
        truth = egress[0] != sample.response_uids[0]
        assert (sample.reverse is SampleOutcome.REORDERED) == truth


def test_redirect_sized_object_cannot_be_measured():
    testbed, address = _testbed(object_size=200)
    result = DataTransferTest(testbed.probe, address, mss=512).run()
    assert result.sample_count() == 0
    assert "single segment" in result.notes or "redirect" in result.notes


def test_num_samples_caps_reported_pairs():
    testbed, address = _testbed(object_size=8 * 1024)
    result = DataTransferTest(testbed.probe, address, mss=512, advertised_window=2048).run(num_samples=5)
    assert result.sample_count() == 5


def test_negative_sample_cap_is_rejected():
    testbed, address = _testbed(object_size=8 * 1024)
    with pytest.raises(MeasurementError, match="cannot be negative"):
        DataTransferTest(testbed.probe, address).run(num_samples=-3)
    # Rejected before the handshake: the simulation never started.
    assert testbed.sim.processed_events == 0


def test_unreachable_host_reports_handshake_failure():
    testbed, _address = _testbed()
    result = DataTransferTest(testbed.probe, parse_address("203.0.113.80")).run()
    assert result.sample_count() == 0
    assert result.notes == "handshake failed"


def test_long_transfer_scans_each_captured_packet_a_bounded_number_of_times(monkeypatch):
    """Capture consumption is linear: the ``*_since`` scans visit O(captured) packets."""
    scanned = 0
    for name in ("captured_since", "tcp_packets_since", "icmp_packets_since"):
        original = getattr(ProbeHost, name)

        def counting(self, cursor, *args, _original=original, **kwargs):
            nonlocal scanned
            scanned += self.received_count() - cursor
            return _original(self, cursor, *args, **kwargs)

        monkeypatch.setattr(ProbeHost, name, counting)

    testbed, address = _testbed(object_size=64 * 1024)
    result = DataTransferTest(testbed.probe, address, mss=256, advertised_window=1024).run()
    # 64 KiB at 256-byte segments is 256 segments -> 255 adjacent pairs.
    assert result.sample_count() == 255
    assert scanned <= 4 * testbed.probe.received_count()


def test_long_transfer_classifies_each_captured_packet_at_most_once(monkeypatch):
    """A round folds its own wait's matches instead of filtering them again."""
    calls = 0
    original = data_transfer._carries_data

    def counting(packet):
        nonlocal calls
        calls += 1
        return original(packet)

    monkeypatch.setattr(data_transfer, "_carries_data", counting)
    testbed, address = _testbed(object_size=64 * 1024)
    result = DataTransferTest(testbed.probe, address, mss=256, advertised_window=1024).run()
    assert result.sample_count() == 255
    assert 0 < calls <= testbed.probe.received_count()


def test_mss_and_window_are_honoured_by_the_server():
    testbed, address = _testbed(object_size=8 * 1024)
    test = DataTransferTest(testbed.probe, address, mss=200, advertised_window=600)
    result = test.run()
    assert result.sample_count() > 0
    handle = testbed.site("target")
    data_segments = [
        record.packet
        for record in handle.reverse_trace.records
        if record.packet.tcp is not None and record.packet.payload
    ]
    assert data_segments
    assert all(len(packet.payload) <= 200 for packet in data_segments)
