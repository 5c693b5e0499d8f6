"""Tests for the web server, ICMP responder, remote host, and probe host."""

from __future__ import annotations

import weakref

import pytest

from repro.host.icmp_responder import IcmpResponder
from repro.host.ipid import GlobalCounterIpid, IpStack
from repro.host.machine import RemoteHost
from repro.host.os_profiles import FREEBSD_44
from repro.host.raw_socket import ProbeHost
from repro.host.server import RedirectingServer, WebServer, build_server
from repro.net.flow import parse_address
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    IcmpEcho,
    IPv4Header,
    Packet,
    TcpFlags,
    TcpHeader,
)
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator

CLIENT = parse_address("10.0.0.1")
SERVER = parse_address("10.0.0.2")


def _no_send(packet):
    """The transmit of a probe whose test never sends."""
    raise AssertionError(f"unexpected send: {packet.describe()}")


def test_web_server_requires_complete_request():
    class FakeEndpoint:
        def __init__(self) -> None:
            self.sent = []

        def send_app_data(self, connection, num_bytes) -> None:
            self.sent.append(num_bytes)

    class FakeConnection:
        key = (1, 2, 3, 4)

    endpoint = FakeEndpoint()
    server = WebServer(object_size=1000)
    server.on_data(endpoint, FakeConnection(), b"GET")
    assert not endpoint.sent
    server.on_data(endpoint, FakeConnection(), b"GET / HTTP/1.0\r\n\r\n")
    assert endpoint.sent == [1000]
    # A second request on the same connection is not answered twice.
    server.on_data(endpoint, FakeConnection(), b"GET / HTTP/1.0\r\n\r\n")
    assert endpoint.sent == [1000]
    server.reset()
    server.on_data(endpoint, FakeConnection(), b"GET / HTTP/1.0\r\n\r\n")
    assert endpoint.sent == [1000, 1000]


def test_build_server_redirect_threshold():
    assert isinstance(build_server(None), RedirectingServer)
    assert isinstance(build_server(200), RedirectingServer)
    assert isinstance(build_server(16 * 1024), WebServer)
    with pytest.raises(ValueError):
        WebServer(object_size=-1)


def test_icmp_responder_replies_with_matching_fields():
    stack = IpStack(address=SERVER, ipid_policy=GlobalCounterIpid(start=50))
    sent = []
    responder = IcmpResponder(stack, sent.append)
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=9, sequence=3, payload=b"ping")
    responder.deliver(Packet.icmp_packet(CLIENT, SERVER, echo))
    assert len(sent) == 1
    reply = sent[0]
    assert reply.icmp is not None
    assert reply.icmp.icmp_type == ICMP_ECHO_REPLY
    assert reply.icmp.identifier == 9 and reply.icmp.sequence == 3
    assert reply.ip.dst == CLIENT
    assert reply.ip.ident == 50


def test_icmp_responder_disabled_or_wrong_target_is_silent():
    stack = IpStack(address=SERVER, ipid_policy=GlobalCounterIpid())
    sent = []
    responder = IcmpResponder(stack, sent.append, enabled=False)
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=1)
    responder.deliver(Packet.icmp_packet(CLIENT, SERVER, echo))
    assert not sent
    assert responder.requests_seen == 1

    enabled = IcmpResponder(stack, sent.append, enabled=True)
    enabled.deliver(Packet.icmp_packet(CLIENT, parse_address("10.0.0.9"), echo))
    assert not sent


def test_remote_host_dispatches_by_protocol():
    sim = Simulator()
    sent = []
    host = RemoteHost(sim, SERVER, FREEBSD_44, SeededRandom(1), sent.append, web_server=WebServer(2048))
    # TCP SYN produces a SYN/ACK; ICMP echo produces a reply; both share IPIDs.
    syn = Packet.tcp_packet(CLIENT, SERVER, TcpHeader(src_port=4000, dst_port=80, seq=1, flags=TcpFlags.SYN))
    host.deliver(syn)
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=2, sequence=1)
    host.deliver(Packet.icmp_packet(CLIENT, SERVER, echo))
    assert len(sent) == 2
    assert sent[0].tcp is not None and sent[1].is_icmp()
    assert sent[1].ip.ident > sent[0].ip.ident
    assert host.packets_delivered == 2


def test_probe_host_capture_filtering_and_ports():
    sim = Simulator()
    sent = []
    probe = ProbeHost(sim, CLIENT, sent.append)
    port_a = probe.allocate_port()
    port_b = probe.allocate_port()
    assert port_a != port_b

    probe.send(Packet.tcp_packet(CLIENT, SERVER, TcpHeader(src_port=port_a, dst_port=80)))
    assert probe.packets_sent == 1 and len(sent) == 1

    cursor = probe.capture_cursor()
    probe.deliver(Packet.tcp_packet(SERVER, CLIENT, TcpHeader(src_port=80, dst_port=port_a, ack=5, flags=TcpFlags.ACK)))
    probe.deliver(Packet.tcp_packet(SERVER, CLIENT, TcpHeader(src_port=80, dst_port=port_b, ack=7, flags=TcpFlags.ACK)))
    probe.deliver(Packet.tcp_packet(SERVER, parse_address("10.0.0.3"), TcpHeader(src_port=80, dst_port=port_a)))

    all_for_a = probe.tcp_packets_since(cursor, local_port=port_a)
    assert len(all_for_a) == 1
    assert [captured.packet.tcp.ack for captured in all_for_a] == [5]
    assert len(probe.captured_since(cursor)) == 2  # packet to another address ignored
    serials = [c.serial for c in probe.captured_since(cursor)]
    assert serials == sorted(serials)


def test_probe_host_wait_helpers_time_out():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    cursor = probe.capture_cursor()
    replies = probe.wait_for_packets(cursor, count=1, timeout=0.2, local_port=1234)
    assert replies == ()
    assert sim.now == pytest.approx(0.2)
    assert not probe.wait_for_predicate(lambda: False, timeout=0.1)


def _deliver_at(sim, probe, when, *packets):
    """Schedule one event at ``when`` that delivers ``packets`` to the probe."""

    def deliver():
        for packet in packets:
            probe.deliver(packet)

    sim.schedule(when - sim.now, deliver)


def _echo_reply(src, sequence):
    return Packet.icmp_packet(src, CLIENT, IcmpEcho(ICMP_ECHO_REPLY, identifier=1, sequence=sequence))


def test_wait_for_icmp_stops_on_the_count_th_reply_and_returns_every_match():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    probe.deliver(_echo_reply(SERVER, 0))  # before the cursor: not counted
    cursor = probe.capture_cursor()
    other = parse_address("10.0.0.7")
    _deliver_at(sim, probe, 0.1, _echo_reply(SERVER, 1))
    _deliver_at(sim, probe, 0.2, Packet.tcp_packet(SERVER, CLIENT, TcpHeader(src_port=80, dst_port=4000)))
    _deliver_at(sim, probe, 0.3, _echo_reply(other, 2))
    # The event that delivers the second matching reply also delivers a third.
    _deliver_at(sim, probe, 0.4, _echo_reply(SERVER, 3), _echo_reply(SERVER, 4))
    _deliver_at(sim, probe, 0.5, _echo_reply(SERVER, 5))

    replies = probe.wait_for_icmp(cursor, count=2, timeout=2.0, remote_addr=SERVER)
    assert sim.now == 0.4
    assert [captured.packet.icmp.sequence for captured in replies] == [1, 3, 4]
    assert replies == probe.icmp_packets_since(cursor, remote_addr=SERVER)

    # On timeout it returns the matches it has, from any address when unfiltered.
    replies = probe.wait_for_icmp(cursor, count=10, timeout=1.0)
    assert sim.now == pytest.approx(1.4)
    assert [captured.packet.icmp.sequence for captured in replies] == [1, 2, 3, 4, 5]


def test_wait_for_packets_match_stops_at_the_first_matching_packet():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    port = probe.allocate_port()

    def segment(seq, payload=b""):
        header = TcpHeader(src_port=80, dst_port=port, seq=seq, ack=1, flags=TcpFlags.ACK)
        return Packet.tcp_packet(SERVER, CLIENT, header, payload=payload)

    cursor = probe.capture_cursor()
    _deliver_at(sim, probe, 0.1, segment(100))  # a pure ACK: first packet of the flow
    _deliver_at(sim, probe, 0.2, segment(100, b"data"))
    _deliver_at(sim, probe, 0.3, segment(104))
    _deliver_at(sim, probe, 0.4, segment(104, b"more"))

    def carries_data(packet):
        return bool(packet.payload)

    replies = probe.wait_for_packets(
        cursor, count=1, timeout=1.0, local_port=port, remote_addr=SERVER, match=carries_data
    )
    assert sim.now == 0.2
    assert [captured.packet.payload for captured in replies] == [b"data"]

    replies = probe.wait_for_packets(cursor, count=2, timeout=1.0, local_port=port, match=carries_data)
    assert sim.now == 0.4
    assert [captured.packet.payload for captured in replies] == [b"data", b"more"]
    # Without a match the same wait counts every packet of the flow.
    assert len(probe.wait_for_packets(cursor, count=2, timeout=1.0, local_port=port)) == 4
    assert sim.now == 0.4


def _data_segment(port, seq, payload=b"x"):
    header = TcpHeader(src_port=80, dst_port=port, seq=seq, ack=1, flags=TcpFlags.ACK)
    return Packet.tcp_packet(SERVER, CLIENT, header, payload=payload)


def test_a_flow_wait_returns_every_match_of_its_satisfying_event():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    port = probe.allocate_port()
    cursor = probe.capture_cursor()
    # One event captures two matching segments and one for another port.
    _deliver_at(sim, probe, 0.1, _data_segment(port, 1), _data_segment(port + 1, 2), _data_segment(port, 3))
    _deliver_at(sim, probe, 0.2, _data_segment(port, 4))
    replies = probe.wait_for_packets(cursor, count=1, timeout=1.0, local_port=port)
    assert sim.now == 0.1
    assert [captured.packet.tcp.seq for captured in replies] == [1, 3]


def test_a_flow_wait_that_times_out_returns_every_match_up_to_the_deadline():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    port = probe.allocate_port()
    probe.deliver(_data_segment(port, 0))  # before the wait began, after its cursor
    cursor = probe.capture_cursor() - 1
    _deliver_at(sim, probe, 0.3, _data_segment(port, 1))
    _deliver_at(sim, probe, 0.5, _data_segment(port, 2))  # exactly at the deadline
    _deliver_at(sim, probe, 0.6, _data_segment(port, 3))
    replies = probe.wait_for_packets(cursor, count=5, timeout=0.5, local_port=port)
    assert sim.now == 0.5
    assert [captured.packet.tcp.seq for captured in replies] == [0, 1, 2]


class _TrackedPacket(Packet):
    """A packet a weak reference can follow (Packet itself has slots only)."""


def test_a_finished_wait_holds_no_packet():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    port = probe.allocate_port()
    header = TcpHeader(src_port=80, dst_port=port, seq=1, ack=1, flags=TcpFlags.ACK)
    packets = [_TrackedPacket(IPv4Header(SERVER, CLIENT, PROTO_TCP), header, None, b"x") for _ in range(3)]
    refs = [weakref.ref(packet) for packet in packets]
    _deliver_at(sim, probe, 0.1, packets[0])
    _deliver_at(sim, probe, 0.2, packets[1])

    def fail():
        raise RuntimeError("element fault")

    sim.schedule(0.3 - sim.now, fail)
    assert len(probe.wait_for_packets(0, count=1, timeout=1.0, local_port=port)) == 1
    assert len(probe.wait_for_packets(0, count=5, timeout=0.15, local_port=port)) == 2
    probe.deliver(packets[2])
    with pytest.raises(RuntimeError, match="element fault"):
        probe.wait_for_packets(0, count=5, timeout=1.0, local_port=port)
    del packets
    probe.clear_captures()
    assert [ref() for ref in refs] == [None, None, None]


def test_a_predicate_wait_is_woken_by_every_capture():
    sim = Simulator()
    probe = ProbeHost(sim, CLIENT, _no_send)
    port = probe.allocate_port()
    for index, when in enumerate((0.1, 0.2, 0.3)):
        _deliver_at(sim, probe, when, _data_segment(port + index, index))
    checks = []

    def three_captured():
        checks.append(sim.now)
        return probe.received_count() >= 3

    assert probe.wait_for_predicate(three_captured, timeout=1.0)
    assert checks == [0.0, 0.1, 0.2, 0.3]


def test_probe_host_port_allocation_wraps():
    probe = ProbeHost(Simulator(), CLIENT, _no_send, first_port=64998)
    ports = [probe.allocate_port() for _ in range(5)]
    assert all(33000 <= port <= 65000 for port in ports)
    assert len(set(ports)) == len(ports)
