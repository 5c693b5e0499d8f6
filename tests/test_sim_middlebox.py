"""Tests for the load balancer and ICMP rate-limiting middleboxes."""

from __future__ import annotations

import pytest

from repro.net.flow import parse_address
from repro.net.icmp import ICMP_TTL_EXCEEDED, IcmpError, quote_packet
from repro.net.packet import ICMP_ECHO_REQUEST, IcmpEcho, Packet, TcpHeader
from repro.sim.middlebox import IcmpRateLimiter, LoadBalancer
from repro.sim.simulator import Simulator

PROBE = parse_address("10.0.0.1")
VIP = parse_address("10.9.0.1")


class _RecordingBackend:
    def __init__(self) -> None:
        self.packets = []

    def deliver(self, packet: Packet) -> None:
        self.packets.append(packet)


def _tcp(src_port: int, dst_port: int = 80) -> Packet:
    return Packet.tcp_packet(PROBE, VIP, TcpHeader(src_port=src_port, dst_port=dst_port))


def _icmp() -> Packet:
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=1)
    return Packet.icmp_packet(PROBE, VIP, echo)


def _holder(backends: list[_RecordingBackend], packet: Packet) -> int:
    """The index of the one backend whose last packet is ``packet``."""
    (index,) = [i for i, backend in enumerate(backends) if backend.packets[-1:] == [packet]]
    return index


def test_load_balancer_requires_backends():
    with pytest.raises(ValueError):
        LoadBalancer([])


def test_same_flow_always_hits_same_backend():
    backends = [_RecordingBackend() for _ in range(4)]
    balancer = LoadBalancer(backends, hash_salt=7)
    for _ in range(20):
        balancer.deliver(_tcp(src_port=40000))
    hit = [backend for backend in backends if backend.packets]
    assert len(hit) == 1
    assert len(hit[0].packets) == 20


def test_both_directions_of_a_flow_share_a_backend():
    backends = [_RecordingBackend() for _ in range(4)]
    balancer = LoadBalancer(backends, hash_salt=3)
    balancer.deliver(_tcp(src_port=41000))
    reply = Packet.tcp_packet(VIP, PROBE, TcpHeader(src_port=80, dst_port=41000))
    balancer.deliver(reply)
    assert len(backends[_holder(backends, reply)].packets) == 2


def test_distinct_connections_spread_across_backends():
    backends = [_RecordingBackend() for _ in range(4)]
    balancer = LoadBalancer(backends, hash_salt=11)
    for port in range(42000, 42080):
        balancer.deliver(_tcp(src_port=port))
    used = sum(1 for backend in backends if backend.packets)
    assert used >= 2


def test_non_tcp_traffic_goes_to_first_backend():
    backends = [_RecordingBackend() for _ in range(3)]
    balancer = LoadBalancer(backends)
    balancer.deliver(_icmp())
    assert len(backends[0].packets) == 1
    assert balancer.non_tcp_packets == 1


def test_icmp_error_follows_the_flow_it_quotes():
    """Regression: errors used to strand on backend 0 regardless of the flow.

    A TTL-exceeded or fragmentation-needed error quotes the offending packet,
    and the quote names the connection; the balancer must hash the quoted
    four-tuple so the error reaches the backend actually serving that flow
    (otherwise PMTUD breaks behind the VIP for most backends).
    """
    backends = [_RecordingBackend() for _ in range(4)]
    balancer = LoadBalancer(backends, hash_salt=5)
    routed = 0
    for port in range(43000, 43040):
        flow_packet = _tcp(src_port=port)
        balancer.deliver(flow_packet)
        index = _holder(backends, flow_packet)
        for error in (
            IcmpError(ICMP_TTL_EXCEEDED, quoted=quote_packet(flow_packet)),
            IcmpError.frag_needed(flow_packet, next_hop_mtu=296),
        ):
            # The router reports back to the flow's source; the balancer sees
            # the error on its way through the reverse path.
            balancer.deliver(Packet.icmp_error_packet(VIP, PROBE, error))
            routed += 1
            assert backends[index].packets[-1].icmp == error
    assert balancer.icmp_errors_routed == routed
    assert balancer.non_tcp_packets == 0


def test_icmp_error_without_a_usable_quote_goes_to_first_backend():
    backends = [_RecordingBackend() for _ in range(3)]
    balancer = LoadBalancer(backends, hash_salt=5)
    # An empty quote names no flow; an echo quote has no ports.  Both fall
    # back to the flowless default, backend 0.
    balancer.deliver(Packet.icmp_error_packet(VIP, PROBE, IcmpError(11)))
    echo_quote = IcmpError(ICMP_TTL_EXCEEDED, quoted=quote_packet(_icmp()))
    balancer.deliver(Packet.icmp_error_packet(VIP, PROBE, echo_quote))
    assert len(backends[0].packets) == 2
    assert balancer.icmp_errors_routed == 0
    assert balancer.non_tcp_packets == 2


def test_icmp_rate_limiter_passes_tcp_untouched():
    sim = Simulator()
    out = []
    limiter = IcmpRateLimiter(rate_per_second=1.0, burst=1)
    limiter.attach(sim, out.append)
    for port in range(40000, 40020):
        limiter.handle_packet(_tcp(src_port=port))
    assert len(out) == 20


def test_icmp_rate_limiter_enforces_budget():
    sim = Simulator()
    out = []
    limiter = IcmpRateLimiter(rate_per_second=10.0, burst=2)
    limiter.attach(sim, out.append)
    for _ in range(10):
        limiter.handle_packet(_icmp())
    assert limiter.icmp_forwarded == 2
    assert limiter.icmp_dropped == 8
    # After enough simulated time the bucket refills.
    sim.run_for(1.0)
    limiter.handle_packet(_icmp())
    assert limiter.icmp_forwarded == 3


def test_icmp_rate_limiter_validation():
    with pytest.raises(ValueError):
        IcmpRateLimiter(rate_per_second=0.0)
    with pytest.raises(ValueError):
        IcmpRateLimiter(rate_per_second=1.0, burst=0)

