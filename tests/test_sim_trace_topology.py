"""Tests for trace capture, element chains, and a testbed's routes."""

from __future__ import annotations

import pytest

from repro.net.errors import SimulationError, TopologyError
from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader
from repro.sim.path import PathElement, attach_chain
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceCapture
from repro.workloads.testbed import HostSpec, Testbed

PROBE = parse_address("10.0.0.1")
SERVER = parse_address("10.0.0.2")


def _packet(dst: int = SERVER) -> Packet:
    return Packet.tcp_packet(PROBE, dst, TcpHeader(src_port=1000, dst_port=80))


class PassthroughElement(PathElement):
    """An element that forwards every packet untouched, counting them."""

    def __init__(self) -> None:
        super().__init__()
        self.packets_seen = 0

    def handle_packet(self, packet: Packet) -> None:
        self.packets_seen += 1
        self._emit(packet)


def test_trace_records_and_orders():
    sim = Simulator()
    out = []
    trace = TraceCapture(point="t")
    trace.attach(sim, out.append)
    first, second = _packet(), _packet()
    trace.handle_packet(first)
    trace.handle_packet(second)
    assert len(trace) == 2
    assert trace.arrival_order([second.uid, first.uid]) == [first.uid, second.uid]
    assert [(record.time, record.packet) for record in trace.records] == [(0.0, first), (0.0, second)]
    assert trace.was_exchanged(first.uid, second.uid) is False
    assert trace.was_exchanged(second.uid, first.uid) is True
    assert len(out) == 2


def test_trace_handles_missing_packets():
    sim = Simulator()
    trace = TraceCapture()
    trace.attach(sim, lambda p: None)
    lone = _packet()
    trace.handle_packet(lone)
    assert trace.was_exchanged(lone.uid, 999999) is None
    assert trace.arrival_order([999999]) == []


def test_trace_exchanged_pairs_and_clear():
    sim = Simulator()
    trace = TraceCapture()
    trace.attach(sim, lambda p: None)
    a, b, c, d = (_packet() for _ in range(4))
    for packet in (b, a, c, d):
        trace.handle_packet(packet)
    assert trace.was_exchanged(a.uid, b.uid) is True
    assert trace.was_exchanged(c.uid, d.uid) is False
    trace.clear()
    assert len(trace) == 0


def test_chain_passes_packets_through_its_elements_in_order():
    sim = Simulator()
    seen = []
    first = PassthroughElement()
    second = PassthroughElement()
    entry = attach_chain([first, second], sim, lambda p: seen.append(p.uid))
    assert entry == first.handle_packet
    packet = _packet()
    entry(packet)
    assert seen == [packet.uid]
    assert first.packets_seen == 1
    assert second.packets_seen == 1


def test_empty_chain_is_its_sink():
    seen = []
    assert attach_chain([], Simulator(), seen.append) == seen.append


def test_reattaching_an_element_reroutes_its_next_packet():
    sim = Simulator()
    first, second = [], []
    element = PassthroughElement()
    entry = attach_chain([element], sim, first.append)
    entry(_packet())
    element.attach(sim, second.append)
    rerouted = _packet()
    entry(rerouted)
    assert len(first) == 1
    assert second == [rerouted]


def test_element_never_attached_rejects_its_first_packet():
    for element in (PassthroughElement(), TraceCapture()):
        with pytest.raises(SimulationError):
            element.handle_packet(_packet())


def test_testbed_routes_forward_and_reverse():
    testbed = Testbed()
    handle = testbed.add_site(HostSpec(name="server", address=SERVER))
    syn = Packet.tcp_packet(PROBE, SERVER, TcpHeader(src_port=1000, dst_port=80, flags=TcpFlags.SYN))
    testbed.probe.send(syn)
    testbed.sim.run_until_idle()
    assert [record.packet for record in handle.forward_trace.records] == [syn]
    replies = [record.packet for record in handle.reverse_trace.records]
    assert [captured.packet for captured in testbed.probe.received] == replies
    assert replies and replies[0].ip.src == SERVER and replies[0].tcp.dst_port == 1000
    assert testbed.packets_unroutable == 0


def test_testbed_counts_unroutable_packets():
    testbed = Testbed()
    testbed.add_site(HostSpec(name="server", address=SERVER))
    testbed.probe.send(_packet(dst=parse_address("203.0.113.9")))
    testbed.sim.run_until_idle()
    assert testbed.packets_unroutable == 1
    assert testbed.probe.received == ()


def test_testbed_refuses_a_second_site_at_one_address():
    testbed = Testbed()
    testbed.add_site(HostSpec(name="first", address=SERVER))
    with pytest.raises(TopologyError, match="duplicate site address: 10.0.0.2"):
        testbed.add_site(HostSpec(name="second", address=SERVER))
    assert testbed.addresses() == [SERVER]
