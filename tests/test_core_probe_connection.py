"""Tests for the probe-side raw TCP connection helper."""

from __future__ import annotations

import pytest

from repro.core.probe_connection import ProbeConnection
from repro.host.tcp_endpoint import TcpState
from repro.net.errors import SampleTimeoutError
from repro.net.flow import parse_address


def test_establish_completes_three_way_handshake(clean_testbed):
    address = clean_testbed.address_of("target")
    connection = ProbeConnection(clean_testbed.probe, address)
    connection.establish()
    assert connection.established
    # Let the final ACK of the handshake propagate to the server.
    clean_testbed.sim.run_for(0.05)
    server = clean_testbed.site("target").hosts[0]
    server_connections = list(server.tcp.connections.values())
    assert len(server_connections) == 1
    assert server_connections[0].state is TcpState.ESTABLISHED
    assert connection.state.rcv_nxt == server_connections[0].iss + 1


def test_establish_times_out_for_unknown_host(clean_testbed):
    connection = ProbeConnection(clean_testbed.probe, parse_address("203.0.113.200"))
    with pytest.raises(SampleTimeoutError):
        connection.establish(timeout=0.3)


def test_distinct_connections_use_distinct_ports(clean_testbed):
    address = clean_testbed.address_of("target")
    first = ProbeConnection(clean_testbed.probe, address)
    second = ProbeConnection(clean_testbed.probe, address)
    assert first.local_port != second.local_port


def test_out_of_order_probe_and_reset(clean_testbed):
    address = clean_testbed.address_of("target")
    connection = ProbeConnection(clean_testbed.probe, address)
    connection.establish()
    cursor = clean_testbed.probe.capture_cursor()
    connection.send_data_at_offset(1, length=1)
    replies = clean_testbed.probe.wait_for_packets(cursor, count=1, timeout=1.0, local_port=connection.local_port)
    assert replies
    assert replies[0].packet.tcp.ack == connection.state.remote_expected_seq

    connection.send_reset()
    clean_testbed.sim.run_for(0.1)
    server = clean_testbed.site("target").hosts[0]
    assert not server.tcp.connections


def test_request_advances_expected_sequence(clean_testbed):
    address = clean_testbed.address_of("target")
    connection = ProbeConnection(clean_testbed.probe, address)
    connection.establish()
    before = connection.state.remote_expected_seq
    connection.send_request(length=32)
    assert connection.state.remote_expected_seq == before + 32


def test_mss_option_is_advertised(clean_testbed):
    address = clean_testbed.address_of("target")
    connection = ProbeConnection(clean_testbed.probe, address, mss=256)
    connection.establish()
    server = clean_testbed.site("target").hosts[0]
    server_connection = list(server.tcp.connections.values())[0]
    assert server_connection.peer_mss == 256
