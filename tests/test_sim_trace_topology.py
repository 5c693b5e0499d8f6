"""Tests for trace capture, pipelines, and the topology."""

from __future__ import annotations

import pytest

from repro.net.errors import SimulationError, TopologyError
from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpHeader
from repro.sim.path import DuplexPath, PathElement, Pipeline
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology
from repro.sim.trace import TraceCapture

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


def test_pipeline_chains_elements_in_order():
    sim = Simulator()
    seen = []
    first = PassthroughElement()
    second = PassthroughElement()
    pipeline = Pipeline([first, second])
    pipeline.attach(sim, lambda p: seen.append(p.uid))
    packet = _packet()
    pipeline.handle_packet(packet)
    assert seen == [packet.uid]
    assert first.packets_seen == 1
    assert second.packets_seen == 1


def test_empty_pipeline_is_a_wire():
    sim = Simulator()
    seen = []
    pipeline = Pipeline()
    pipeline.attach(sim, lambda p: seen.append(p.uid))
    pipeline.handle_packet(_packet())
    assert len(seen) == 1


def test_pipeline_keeps_its_own_element_list():
    """A pipeline is fixed at construction: the caller's list, changed after
    attach, does not reach the wired chain."""
    sim = Simulator()
    seen = []
    elements = []
    pipeline = Pipeline(elements)
    pipeline.attach(sim, lambda p: seen.append(p.uid))
    late = PassthroughElement()
    elements.append(late)
    pipeline.handle_packet(_packet())
    assert len(seen) == 1
    assert late.packets_seen == 0


def test_pipeline_use_before_attach_rejected():
    pipeline = Pipeline()
    with pytest.raises(SimulationError):
        pipeline.handle_packet(_packet())


def test_reattaching_an_element_reroutes_its_next_packet():
    sim = Simulator()
    first, second = [], []
    element = PassthroughElement()
    pipeline = Pipeline([element])
    pipeline.attach(sim, first.append)
    pipeline.handle_packet(_packet())
    element.attach(sim, second.append)
    rerouted = _packet()
    pipeline.handle_packet(rerouted)
    assert len(first) == 1
    assert second == [rerouted]


def test_element_never_attached_rejects_its_first_packet():
    for element in (PassthroughElement(), TraceCapture()):
        with pytest.raises(SimulationError):
            element.handle_packet(_packet())


class _Probe:
    def __init__(self, address: int) -> None:
        self.address = address
        self.received = []

    def deliver(self, packet: Packet) -> None:
        self.received.append(packet)


class _Site:
    def __init__(self) -> None:
        self.received = []

    def deliver(self, packet: Packet) -> None:
        self.received.append(packet)


def test_topology_routes_forward_and_reverse():
    sim = Simulator()
    topology = Topology(sim)
    probe = _Probe(PROBE)
    site = _Site()
    topology.attach_probe(probe)
    topology.add_site(SERVER, site, DuplexPath(Pipeline(), Pipeline()))

    probe_packet = _packet()
    topology.send_from_probe(probe_packet)
    assert site.received == [probe_packet]

    reply = Packet.tcp_packet(SERVER, PROBE, TcpHeader(src_port=80, dst_port=1000))
    topology.transmit_for_site(SERVER)(reply)
    assert probe.received == [reply]


def test_topology_unroutable_packets_counted():
    sim = Simulator()
    topology = Topology(sim)
    topology.attach_probe(_Probe(PROBE))
    topology.send_from_probe(_packet(dst=parse_address("203.0.113.9")))
    assert topology.packets_unroutable == 1


def test_topology_rejects_misuse():
    sim = Simulator()
    topology = Topology(sim)
    with pytest.raises(TopologyError):
        topology.add_site(SERVER, _Site(), DuplexPath(Pipeline(), Pipeline()))
    topology.attach_probe(_Probe(PROBE))
    topology.add_site(SERVER, _Site(), DuplexPath(Pipeline(), Pipeline()))
    with pytest.raises(TopologyError):
        topology.add_site(SERVER, _Site(), DuplexPath(Pipeline(), Pipeline()))
    with pytest.raises(TopologyError):
        topology.transmit_for_site(parse_address("198.51.100.1"))
    assert topology.addresses() == (SERVER,)
    assert topology.transmit_for_site(SERVER) is not None
