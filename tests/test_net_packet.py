"""Tests for the in-memory packet models."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.net.flow import parse_address
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    IcmpEcho,
    IPv4Header,
    Packet,
    TcpFlags,
    TcpHeader,
    TcpOption,
)

SRC = parse_address("10.0.0.1")
DST = parse_address("10.0.0.2")


def _tcp_header(**overrides):
    defaults = dict(src_port=1234, dst_port=80, seq=100, ack=200, flags=TcpFlags.ACK)
    defaults.update(overrides)
    return TcpHeader(**defaults)


def test_flags_describe():
    assert TcpFlags.SYN.describe() == "SYN"
    assert (TcpFlags.SYN | TcpFlags.ACK).describe() == "SYN|ACK"
    assert TcpFlags.NONE.describe() == "-"


def test_mss_option_round_trip():
    option = TcpOption.mss(1460)
    assert option.mss_value() == 1460
    assert option.encoded_length() == 4


def test_mss_option_rejects_out_of_range():
    with pytest.raises(ValueError):
        TcpOption.mss(70000)


def test_header_lengths_account_for_options():
    plain = _tcp_header()
    with_mss = _tcp_header(options=(TcpOption.mss(1460),))
    assert plain.header_length() == 20
    assert with_mss.header_length() == 24


def test_tcp_header_validation():
    with pytest.raises(ValueError):
        _tcp_header(seq=1 << 32)
    with pytest.raises(ValueError):
        _tcp_header(src_port=-1)
    with pytest.raises(ValueError):
        _tcp_header(window=1 << 17)
    # Every field the wire codec packs into a fixed-width slot is checked at
    # construction, so serialize_packet never meets a value it cannot encode.
    with pytest.raises(ValueError, match="urgent"):
        _tcp_header(urgent=70000)
    with pytest.raises(ValueError, match="flags"):
        _tcp_header(flags=0x1FF)
    with pytest.raises(ValueError, match="options"):
        _tcp_header(options=(TcpOption(TcpOption.KIND_SACK, b"\x00" * 40),))
    limit = (TcpOption(TcpOption.KIND_SACK, b"\x00" * 38),)
    assert _tcp_header(options=limit).header_length() == 60


def test_ip_header_validation():
    with pytest.raises(ValueError):
        IPv4Header(src=SRC, dst=DST, protocol=PROTO_TCP, ident=1 << 16)
    with pytest.raises(ValueError):
        IPv4Header(src=SRC, dst=DST, protocol=PROTO_TCP, ttl=300)
    with pytest.raises(ValueError, match="src"):
        IPv4Header(src=2**32, dst=DST, protocol=PROTO_TCP)
    with pytest.raises(ValueError, match="src"):
        IPv4Header(src=-1, dst=DST, protocol=PROTO_TCP)
    with pytest.raises(ValueError, match="dst"):
        IPv4Header(src=SRC, dst=2**32, protocol=PROTO_TCP)
    with pytest.raises(ValueError, match="TOS"):
        IPv4Header(src=SRC, dst=DST, protocol=PROTO_TCP, tos=300)


def test_packet_uid_unique_and_preserved_by_with_ip():
    a = Packet.tcp_packet(SRC, DST, _tcp_header())
    b = Packet.tcp_packet(SRC, DST, _tcp_header())
    assert a.uid != b.uid
    rewritten = a.with_ip(ttl=10)
    assert rewritten.uid == a.uid
    assert rewritten.ip.ttl == 10


def test_packet_clone_gets_new_uid():
    a = Packet.tcp_packet(SRC, DST, _tcp_header())
    assert a.clone().uid != a.uid


def test_packet_total_length():
    packet = Packet.tcp_packet(SRC, DST, _tcp_header(), payload=b"abc")
    assert packet.total_length() == 20 + 20 + 3


def test_four_tuple_requires_tcp():
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=2)
    packet = Packet.icmp_packet(SRC, DST, echo)
    with pytest.raises(ValueError):
        packet.four_tuple()
    assert packet.is_icmp() and not packet.is_tcp()


def test_packet_cannot_mix_transports():
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=2)
    ip = IPv4Header(src=SRC, dst=DST, protocol=PROTO_TCP)
    with pytest.raises(ValueError):
        Packet(ip=ip, tcp=_tcp_header(), icmp=echo)


def test_describe_mentions_key_fields():
    packet = Packet.tcp_packet(SRC, DST, _tcp_header(flags=TcpFlags.SYN), ident=42)
    text = packet.describe()
    assert "SYN" in text and "ipid=42" in text and "10.0.0.2" in text


def test_headers_reject_field_assignment():
    headers = (IPv4Header(SRC, DST, PROTO_TCP), _tcp_header())
    for header in headers:
        for name in type(header)._fields:
            with pytest.raises(AttributeError):
                setattr(header, name, getattr(header, name))
        with pytest.raises(AttributeError):
            header.extra = 1


def test_packet_rewrites_validate_the_new_header():
    packet = Packet.tcp_packet(SRC, DST, _tcp_header())
    with pytest.raises(ValueError, match="TTL"):
        packet.with_ip(ttl=300)
    with pytest.raises(ValueError, match="seq"):
        packet.with_tcp(seq=-1)


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_headers_survive_a_pickle_round_trip(protocol):
    options = (TcpOption.mss(1460),)
    for header in (IPv4Header(SRC, DST, PROTO_TCP, ident=7, tos=3), _tcp_header(options=options)):
        restored = pickle.loads(pickle.dumps(header, protocol))
        assert restored == header
        assert type(restored) is type(header)
        assert repr(restored) == repr(header)


# Every way the header types offer to build a copy with changed fields.
_COPY_HELPERS = {
    "_replace": lambda header, **changes: header._replace(**changes),
    "_make": lambda header, **changes: type(header)._make(
        changes.get(name, value) for name, value in zip(type(header)._fields, header)
    ),
}
if hasattr(copy, "replace"):  # Python 3.13+
    _COPY_HELPERS["copy.replace"] = lambda header, **changes: copy.replace(header, **changes)


@pytest.mark.parametrize("name", sorted(_COPY_HELPERS))
def test_every_copy_helper_validates(name):
    helper = _COPY_HELPERS[name]
    ip = IPv4Header(SRC, DST, PROTO_TCP)
    tcp = _tcp_header()
    assert helper(ip, ttl=1) == IPv4Header(SRC, DST, PROTO_TCP, ttl=1)
    assert helper(tcp, window=5) == _tcp_header(window=5)
    with pytest.raises(ValueError, match="TTL"):
        helper(ip, ttl=300)
    with pytest.raises(ValueError, match="window"):
        helper(tcp, window=1 << 17)


def test_reconstruction_revalidates_a_forged_header():
    # A tuple forged past the constructor cannot survive a copy or a pickle
    # round trip under any protocol: each rebuilds it through __new__.
    forged = tuple.__new__(IPv4Header, (SRC, DST, PROTO_TCP, 0, 300, True, 0))
    rebuilds = [copy.copy, copy.deepcopy] + [
        lambda header, protocol=protocol: pickle.loads(pickle.dumps(header, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for rebuild in rebuilds:
        with pytest.raises(ValueError, match="TTL"):
            rebuild(forged)
