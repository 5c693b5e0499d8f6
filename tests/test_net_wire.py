"""Tests for wire serialization and parsing."""

from __future__ import annotations

import pytest

from repro.net.checksum import internet_checksum, pseudo_header_sum
from repro.net.errors import ParseError
from repro.net.flow import parse_address
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    IcmpEcho,
    Packet,
    TcpFlags,
    TcpHeader,
    TcpOption,
)
from repro.net.wire import parse_packet, serialize_packet

SRC = parse_address("10.0.0.1")
DST = parse_address("10.0.0.2")


def _round_trip(packet: Packet) -> Packet:
    return parse_packet(serialize_packet(packet))


def test_tcp_round_trip_preserves_measurement_fields():
    header = TcpHeader(
        src_port=33001,
        dst_port=80,
        seq=123456,
        ack=654321,
        flags=TcpFlags.ACK | TcpFlags.PSH,
        window=512,
        options=(TcpOption.mss(256),),
    )
    packet = Packet.tcp_packet(SRC, DST, header, payload=b"x", ident=777)
    parsed = _round_trip(packet)
    assert parsed.tcp is not None
    assert parsed.ip.ident == 777
    assert parsed.tcp.seq == 123456
    assert parsed.tcp.ack == 654321
    assert parsed.tcp.flags == TcpFlags.ACK | TcpFlags.PSH
    assert parsed.tcp.window == 512
    assert parsed.tcp.mss() == 256
    assert parsed.payload == b"x"


def test_icmp_round_trip():
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=7, sequence=9, payload=b"ping")
    packet = Packet.icmp_packet(SRC, DST, echo, ident=5)
    parsed = _round_trip(packet)
    assert parsed.icmp is not None
    assert parsed.icmp.identifier == 7
    assert parsed.icmp.sequence == 9
    assert parsed.icmp.payload == b"ping"


def test_ip_header_checksum_is_valid():
    packet = Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2))
    raw = serialize_packet(packet)
    assert internet_checksum(raw[:20]) == 0


def test_tcp_checksum_includes_pseudo_header():
    packet = Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2), payload=b"hi")
    raw = serialize_packet(packet)
    segment = raw[20:]
    pseudo = pseudo_header_sum(SRC, DST, PROTO_TCP, len(segment))
    assert internet_checksum(segment, initial=pseudo) == 0


def test_parse_rejects_truncated_buffer():
    with pytest.raises(ParseError):
        parse_packet(b"\x45\x00\x00")


def test_parse_rejects_wrong_version():
    packet = Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2))
    raw = bytearray(serialize_packet(packet))
    raw[0] = (6 << 4) | 5
    with pytest.raises(ParseError):
        parse_packet(bytes(raw))


def test_parse_rejects_unknown_transport():
    packet = Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2))
    raw = bytearray(serialize_packet(packet))
    raw[9] = 17  # claim UDP
    with pytest.raises(ParseError):
        parse_packet(bytes(raw))


def test_serialized_length_matches_model():
    packet = Packet.tcp_packet(SRC, DST, TcpHeader(src_port=1, dst_port=2), payload=b"abcd")
    assert len(serialize_packet(packet)) == packet.total_length()


def test_options_padded_to_word_boundary():
    header = TcpHeader(src_port=1, dst_port=2, options=(TcpOption.mss(1460),))
    packet = Packet.tcp_packet(SRC, DST, header)
    parsed = _round_trip(packet)
    assert parsed.tcp is not None
    assert parsed.tcp.header_length() % 4 == 0
