"""Tests for the server-side TCP endpoint state machine."""

from __future__ import annotations

import pytest

from repro.host.ipid import GlobalCounterIpid, IpStack
from repro.host.os_profiles import (
    FREEBSD_44,
    LEGACY_DELAYED_ACK,
    ODDBALL_DUAL_RST,
    ODDBALL_SILENT_SYN,
    SPEC_STRICT,
    OsProfile,
)
from repro.host.tcp_endpoint import TcpEndpoint, TcpState
from repro.net.flow import parse_address
from repro.net.packet import Packet, TcpFlags, TcpHeader, TcpOption
from repro.net.seqnum import seq_add
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator

CLIENT = parse_address("10.0.0.1")
SERVER = parse_address("10.0.0.2")
CLIENT_PORT = 40000


class Harness:
    """Drives a TcpEndpoint directly and records what it transmits."""

    def __init__(self, profile: OsProfile = FREEBSD_44) -> None:
        self.sim = Simulator()
        self.stack = IpStack(address=SERVER, ipid_policy=GlobalCounterIpid(start=100))
        self.sent: list[Packet] = []
        self.endpoint = TcpEndpoint(
            sim=self.sim,
            stack=self.stack,
            profile=profile,
            rng=SeededRandom(1),
            transmit=self.sent.append,
            listen_ports=(80,),
        )

    def deliver(self, flags: TcpFlags, seq: int, ack: int = 0, payload: bytes = b"",
                port: int = CLIENT_PORT, options: tuple = ()) -> None:
        header = TcpHeader(src_port=port, dst_port=80, seq=seq, ack=ack, flags=flags,
                           options=options)
        self.endpoint.deliver(Packet.tcp_packet(CLIENT, SERVER, header, payload=payload))

    def handshake(self, isn: int = 1000, port: int = CLIENT_PORT,
                  mss: int | None = None) -> tuple[int, int]:
        """Complete the three-way handshake; return (server_iss, client_next_seq)."""
        options = (TcpOption.mss(mss),) if mss else ()
        self.deliver(TcpFlags.SYN, seq=isn, port=port, options=options)
        syn_ack = self.sent[-1].tcp
        assert syn_ack is not None and syn_ack.has(TcpFlags.SYN) and syn_ack.has(TcpFlags.ACK)
        self.deliver(TcpFlags.ACK, seq=isn + 1, ack=seq_add(syn_ack.seq, 1), port=port)
        return syn_ack.seq, isn + 1

    def last_acks(self, count: int) -> list[int]:
        values = [p.tcp.ack for p in self.sent if p.tcp is not None and p.tcp.has(TcpFlags.ACK)]
        return values[-count:]

    def connection(self):
        connections = list(self.endpoint.connections.values())
        assert len(connections) == 1
        return connections[0]


def test_handshake_creates_established_connection():
    harness = Harness()
    harness.handshake(isn=5000)
    connection = harness.connection()
    assert connection.state is TcpState.ESTABLISHED
    assert connection.rcv_nxt == 5001
    assert harness.endpoint.connections_accepted == 1


def test_syn_ack_acknowledges_first_syn():
    harness = Harness()
    harness.deliver(TcpFlags.SYN, seq=7000)
    syn_ack = harness.sent[-1].tcp
    assert syn_ack is not None
    assert syn_ack.ack == 7001
    assert syn_ack.mss() is not None


def test_out_of_order_data_gets_immediate_duplicate_ack():
    harness = Harness()
    _iss, next_seq = harness.handshake()
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"x")
    assert harness.last_acks(1) == [next_seq]
    # A repeat of the same out-of-order byte is acknowledged again immediately.
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"x")
    assert harness.last_acks(1) == [next_seq]


def test_in_order_data_uses_delayed_ack():
    harness = Harness()
    _iss, next_seq = harness.handshake()
    sent_before = len(harness.sent)
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq, payload=b"a")
    assert len(harness.sent) == sent_before  # no immediate ack
    harness.sim.run_for(FREEBSD_44.delayed_ack_timeout + 0.05)
    assert harness.last_acks(1) == [next_seq + 1]


def test_second_in_order_segment_forces_ack():
    harness = Harness()
    _iss, next_seq = harness.handshake()
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq, payload=b"a")
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"b")
    assert harness.last_acks(1) == [next_seq + 2]


def test_hole_fill_is_acknowledged_immediately():
    harness = Harness()
    _iss, next_seq = harness.handshake()
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"x")  # hole
    sent_before = len(harness.sent)
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq, payload=b"y")  # fills it
    assert len(harness.sent) == sent_before + 1
    assert harness.last_acks(1) == [next_seq + 2]


def test_legacy_profile_delays_ack_even_on_hole_fill():
    harness = Harness(profile=LEGACY_DELAYED_ACK)
    _iss, next_seq = harness.handshake()
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"x")
    sent_before = len(harness.sent)
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq, payload=b"y")
    assert len(harness.sent) == sent_before  # the hole-fill ack is delayed
    harness.sim.run_for(LEGACY_DELAYED_ACK.delayed_ack_timeout + 0.05)
    assert harness.last_acks(1) == [next_seq + 2]


def test_second_syn_default_is_rst():
    harness = Harness()
    harness.deliver(TcpFlags.SYN, seq=9000)
    harness.deliver(TcpFlags.SYN, seq=9100)
    last = harness.sent[-1].tcp
    assert last is not None and last.has(TcpFlags.RST)
    assert harness.endpoint.resets_sent == 1


def test_second_syn_spec_compliant_distinguishes_window():
    harness = Harness(profile=SPEC_STRICT)
    harness.deliver(TcpFlags.SYN, seq=9000)
    # In-window second SYN (higher sequence number) -> RST.
    harness.deliver(TcpFlags.SYN, seq=9100)
    assert harness.sent[-1].tcp.has(TcpFlags.RST)

    other = Harness(profile=SPEC_STRICT)
    other.deliver(TcpFlags.SYN, seq=9100)
    # An old (below-window) SYN arriving late -> pure ACK, no RST.
    other.deliver(TcpFlags.SYN, seq=9000)
    last = other.sent[-1].tcp
    assert last.has(TcpFlags.ACK) and not last.has(TcpFlags.RST) and not last.has(TcpFlags.SYN)


def test_second_syn_dual_rst_and_silent_profiles():
    dual = Harness(profile=ODDBALL_DUAL_RST)
    dual.deliver(TcpFlags.SYN, seq=100)
    dual.deliver(TcpFlags.SYN, seq=200)
    rst_count = sum(1 for p in dual.sent if p.tcp is not None and p.tcp.has(TcpFlags.RST))
    assert rst_count == 2

    silent = Harness(profile=ODDBALL_SILENT_SYN)
    silent.deliver(TcpFlags.SYN, seq=100)
    before = len(silent.sent)
    silent.deliver(TcpFlags.SYN, seq=200)
    assert len(silent.sent) == before


def test_rst_tears_down_connection():
    harness = Harness()
    harness.handshake()
    harness.deliver(TcpFlags.RST, seq=0)
    assert not harness.endpoint.connections


def test_fin_is_acknowledged_and_closes():
    harness = Harness()
    _iss, next_seq = harness.handshake()
    harness.deliver(TcpFlags.FIN | TcpFlags.ACK, seq=next_seq)
    last = harness.sent[-1].tcp
    assert last is not None and last.has(TcpFlags.FIN)
    assert last.ack == next_seq + 1
    assert not harness.endpoint.connections


def test_unknown_segment_gets_reset():
    harness = Harness()
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=123, ack=456, payload=b"zz")
    last = harness.sent[-1].tcp
    assert last is not None and last.has(TcpFlags.RST)


def test_app_data_respects_mss_and_window():
    harness = Harness()
    harness.handshake(mss=200)
    connection = harness.connection()
    connection.peer_window = 500
    harness.endpoint.send_app_data(connection, 1000)
    data_segments = [p for p in harness.sent if p.payload]
    assert data_segments
    assert all(len(p.payload) <= 200 for p in data_segments)
    assert sum(len(p.payload) for p in data_segments) <= 500


def test_app_data_continues_after_ack_and_retransmits_on_loss():
    harness = Harness()
    server_iss, next_seq = harness.handshake(mss=200)
    connection = harness.connection()
    connection.peer_window = 400
    harness.endpoint.send_app_data(connection, 800)
    first_batch = [p for p in harness.sent if p.payload]
    assert sum(len(p.payload) for p in first_batch) == 400

    # Acknowledge the first batch: the window opens and the rest flows.
    harness.deliver(TcpFlags.ACK, seq=next_seq, ack=seq_add(server_iss, 401))
    total = sum(len(p.payload) for p in harness.sent if p.payload)
    assert total == 800

    # Without further acknowledgments the retransmit timer fires.
    segments_before = len([p for p in harness.sent if p.payload])
    harness.sim.run_for(1.5)
    segments_after = len([p for p in harness.sent if p.payload])
    assert segments_after > segments_before


def test_every_transmitted_packet_carries_fresh_ipid():
    harness = Harness()
    harness.handshake()
    _iss, next_seq = 0, harness.connection().rcv_nxt
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"x")
    harness.deliver(TcpFlags.ACK | TcpFlags.PSH, seq=next_seq + 1, payload=b"x")
    idents = [p.ip.ident for p in harness.sent]
    assert idents == sorted(idents)
    assert len(set(idents)) == len(idents)


def test_send_app_data_rejects_negative():
    harness = Harness()
    harness.handshake()
    with pytest.raises(ValueError):
        harness.endpoint.send_app_data(harness.connection(), -1)
