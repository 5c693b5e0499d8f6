"""Layer microbenchmarks for the host TCP receive path.

Three cases on a bare ``TcpEndpoint`` (FreeBSD 4.4 profile: delayed ACKs
every second segment), run with pytest-benchmark.  The endpoint's transmit
appends to a list, so no path element, event loop or capture is timed.
Each round gets a fresh endpoint with an established connection from
``benchmark.pedantic(setup=...)`` and delivers ``SEGMENTS`` prebuilt
packets, so every round runs the same deliveries from the same state:

* in-order data: each segment advances ``rcv_nxt``; every other one
  schedules the delayed-ACK timer and the next sends the ACK;
* out-of-order data: each segment lands above a one-byte hole, is queued
  and answered with an immediate duplicate ACK;
* window-opening ACKs mid-transfer: the peer has fetched an object through
  a 1024-byte window of 256-byte segments; each ACK covers one more segment
  and the server's send loop sends one more (the data-transfer test's
  server side).

Each case stores the median cost of one ``deliver`` call, in nanoseconds,
in its ``extra_info["ns_per_deliver"]``.  The cases claim nothing by
themselves.  Compare medians and IQRs of two commits measured on one
machine in one session, beside a case neither commit changes (for example
``test_layer_event_loop.py::test_timers_with_half_cancelled``)::

    PYTHONPATH=src python -m pytest benchmarks/layers -q --benchmark-json=layers.json

Tier-1 runs do not collect this directory (``testpaths = ["tests"]``).
"""

from __future__ import annotations

from repro.host.ipid import GlobalCounterIpid, IpStack
from repro.host.os_profiles import FREEBSD_44
from repro.host.server import WebServer
from repro.host.tcp_endpoint import TcpEndpoint
from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader, TcpOption
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator

SEGMENTS = 200
ROUNDS = 200
PROBE = parse_address("10.0.0.1")
SERVER = parse_address("10.0.0.2")
PORT = 40000
ISN = 1000
MSS = 256
WINDOW = 1024
ACK = TcpFlags.ACK
ACK_PSH = TcpFlags.ACK | TcpFlags.PSH


def _segment(seq: int, ack: int, flags: TcpFlags = ACK, payload: bytes = b"") -> Packet:
    header = TcpHeader(PORT, 80, seq, ack, flags, WINDOW, 0, ())
    return Packet.tcp_packet(PROBE, SERVER, header, payload)


def _established(object_size: int = 0):
    """A fresh endpoint past the handshake; returns it, its sent list and the server's next seq."""
    sent: list[Packet] = []
    endpoint = TcpEndpoint(
        Simulator(),
        IpStack(SERVER, GlobalCounterIpid(start=100)),
        FREEBSD_44,
        SeededRandom(1),
        sent.append,
        on_data=WebServer(object_size).on_data if object_size else None,
    )
    syn = TcpHeader(PORT, 80, ISN, 0, TcpFlags.SYN, WINDOW, 0, (TcpOption.mss(MSS),))
    endpoint.deliver(Packet.tcp_packet(PROBE, SERVER, syn))
    server_next = (sent[-1].tcp.seq + 1) % (1 << 32)
    endpoint.deliver(_segment(ISN + 1, server_next))
    return endpoint, sent, server_next


def _record_cost_per_deliver(benchmark) -> None:
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_deliver"] = benchmark.stats.stats.median / SEGMENTS * 1e9


def _deliver_all(endpoint, sent, packets):
    for packet in packets:
        endpoint.deliver(packet)
    return sent


def test_in_order_data_on_the_delayed_ack_path(benchmark):
    def fresh():
        endpoint, sent, server_next = _established()
        packets = [_segment(ISN + 1 + index * 100, server_next, ACK_PSH, bytes(100)) for index in range(SEGMENTS)]
        return (endpoint, sent, packets), {}

    sent = benchmark.pedantic(_deliver_all, setup=fresh, rounds=ROUNDS, iterations=1)
    _record_cost_per_deliver(benchmark)
    acks = sent[1:]  # after the SYN/ACK
    assert len(acks) == SEGMENTS // 2
    assert acks[-1].tcp.ack == ISN + 1 + SEGMENTS * 100


def test_out_of_order_data_answered_by_a_duplicate_ack(benchmark):
    def fresh():
        endpoint, sent, server_next = _established()
        packets = [_segment(ISN + 2 + index * 100, server_next, ACK_PSH, bytes(100)) for index in range(SEGMENTS)]
        return (endpoint, sent, packets), {}

    sent = benchmark.pedantic(_deliver_all, setup=fresh, rounds=ROUNDS, iterations=1)
    _record_cost_per_deliver(benchmark)
    acks = sent[1:]
    assert len(acks) == SEGMENTS
    assert {packet.tcp.ack for packet in acks} == {ISN + 1}


def test_acks_that_open_the_window_mid_transfer(benchmark):
    object_size = (SEGMENTS + WINDOW // MSS) * MSS

    def fresh():
        endpoint, sent, server_next = _established(object_size)
        request = b"GET / HTTP/1.0\r\n\r\n"
        endpoint.deliver(_segment(ISN + 1, server_next, ACK_PSH, request))
        assert len(sent) == 1 + WINDOW // MSS  # the window's worth of data
        client_next = ISN + 1 + len(request)
        packets = [_segment(client_next, server_next + (index + 1) * MSS) for index in range(SEGMENTS)]
        return (endpoint, sent, packets), {}

    sent = benchmark.pedantic(_deliver_all, setup=fresh, rounds=ROUNDS, iterations=1)
    _record_cost_per_deliver(benchmark)
    data = [packet for packet in sent if packet.payload]
    assert len(data) == SEGMENTS + WINDOW // MSS
    assert all(len(packet.payload) == MSS for packet in data)
