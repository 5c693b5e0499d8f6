"""Tests for the in-memory packet models."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from repro.net.flow import parse_address
from repro.net.icmp import ICMP_TTL_EXCEEDED, IcmpError, quote_packet
from repro.net.packet import (
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    PROTO_UDP,
    IcmpEcho,
    IPv4Header,
    Packet,
    PricedOptions,
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


def _rewrite_ip(packet: Packet, **changes) -> Packet:
    """A forward with IP fields replaced, built the way the ECN middleboxes build one."""
    return Packet(packet.ip._replace(**changes), packet.tcp, packet.icmp, packet.payload, packet.uid)


def _rewrite_tcp(packet: Packet, **changes) -> Packet:
    """A forward with TCP fields replaced, built the way the NAT builds one."""
    return Packet(packet.ip, packet.tcp._replace(**changes), None, packet.payload, packet.uid)


def test_packet_uid_unique_and_preserved_by_a_rewrite():
    a = Packet.tcp_packet(SRC, DST, _tcp_header())
    b = Packet.tcp_packet(SRC, DST, _tcp_header())
    assert a.uid != b.uid
    rewritten = _rewrite_ip(a, ttl=10)
    assert rewritten.uid == a.uid
    assert rewritten.ip.ttl == 10


def test_packet_total_length():
    packet = Packet.tcp_packet(SRC, DST, _tcp_header(), payload=b"abc")
    assert packet.total_length() == 20 + 20 + 3


def test_packet_cannot_mix_transports():
    echo = IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=2)
    assert Packet.icmp_packet(SRC, DST, echo).is_icmp()
    assert not Packet.tcp_packet(SRC, DST, _tcp_header()).is_icmp()
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
        _rewrite_ip(packet, ttl=300)
    with pytest.raises(ValueError, match="seq"):
        _rewrite_tcp(packet, seq=-1)


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


# --------------------------------------------------------------------- #
# The combined range test rejects what the per-field checks rejected
# --------------------------------------------------------------------- #


def _ip_field_checks(src, dst, protocol, ident=0, ttl=64, dont_fragment=True, tos=0):
    """IPv4Header's per-field checks before the combined range test (oracle)."""
    if not 0 <= ident <= 0xFFFF:
        raise ValueError(f"IPID out of range: {ident}")
    if not 0 <= ttl <= 255:
        raise ValueError(f"TTL out of range: {ttl}")
    if not 0 <= protocol <= 255:
        raise ValueError(f"protocol out of range: {protocol}")
    if not 0 <= src <= 0xFFFFFFFF:
        raise ValueError(f"src address out of range: {src}")
    if not 0 <= dst <= 0xFFFFFFFF:
        raise ValueError(f"dst address out of range: {dst}")
    if not 0 <= tos <= 255:
        raise ValueError(f"TOS out of range: {tos}")
    return (src, dst, protocol, ident, ttl, dont_fragment, tos)


def _tcp_field_checks(src_port, dst_port, seq=0, ack=0, flags=TcpFlags.NONE, window=65535, urgent=0, options=()):
    """TcpHeader's per-field checks before the combined range test (oracle)."""
    if not 0 <= src_port <= 0xFFFF:
        raise ValueError(f"src_port out of range: {src_port}")
    if not 0 <= dst_port <= 0xFFFF:
        raise ValueError(f"dst_port out of range: {dst_port}")
    if not 0 <= seq <= 0xFFFFFFFF:
        raise ValueError(f"seq out of range: {seq}")
    if not 0 <= ack <= 0xFFFFFFFF:
        raise ValueError(f"ack out of range: {ack}")
    if not 0 <= window <= 0xFFFF:
        raise ValueError(f"window out of range: {window}")
    if not 0 <= flags <= 0xFF:
        raise ValueError(f"flags out of range: {flags}")
    if not 0 <= urgent <= 0xFFFF:
        raise ValueError(f"urgent out of range: {urgent}")
    option_bytes = sum(option.encoded_length() for option in options)
    if option_bytes > 40:
        raise ValueError(f"options too long: {option_bytes} bytes (max 40)")
    return (src_port, dst_port, seq, ack, flags, window, urgent, options)


_IP_LIMITS = {"src": 0xFFFFFFFF, "dst": 0xFFFFFFFF, "protocol": 0xFF, "ident": 0xFFFF, "ttl": 0xFF, "tos": 0xFF}
_TCP_LIMITS = {
    "src_port": 0xFFFF, "dst_port": 0xFFFF, "seq": 0xFFFFFFFF, "ack": 0xFFFFFFFF,
    "flags": 0xFF, "window": 0xFFFF, "urgent": 0xFFFF,
}
_HEADERS = {
    "ip": (IPv4Header, _ip_field_checks, _IP_LIMITS, dict(src=SRC, dst=DST, protocol=PROTO_TCP)),
    "tcp": (TcpHeader, _tcp_field_checks, _TCP_LIMITS, dict(src_port=1234, dst_port=80, flags=TcpFlags.ACK)),
}


def _outcome(build, fields):
    try:
        return "built", tuple(build(**fields))
    except Exception as error:  # noqa: BLE001 - the type and message are the result
        return type(error), str(error)


def _probe_values(limit):
    """Out of range, negative, huge, floats in and out of range, None, bools, the edges."""
    return (limit + 1, -1, 2**64, -(2**64), limit + 0.5, -0.5, 1.5, float(limit), None, True, False, 0, limit)


@pytest.mark.parametrize("kind", sorted(_HEADERS))
def test_each_field_is_accepted_or_rejected_as_the_per_field_checks_did(kind):
    build, oracle, limits, base = _HEADERS[kind]
    for name, limit in limits.items():
        for value in _probe_values(limit):
            fields = dict(base, **{name: value})
            assert _outcome(build, fields) == _outcome(oracle, fields), (name, value)


@pytest.mark.parametrize("kind", sorted(_HEADERS))
def test_two_bad_fields_raise_the_first_checks_error(kind):
    build, oracle, limits, base = _HEADERS[kind]
    for first, second in itertools.combinations(limits, 2):
        for bad in ((limits[first] + 1, -1), (None, limits[second] + 1), (-1, 0.5 - limits[second])):
            fields = dict(base, **{first: bad[0], second: bad[1]})
            assert _outcome(build, fields) == _outcome(oracle, fields), (first, second, bad)


def test_tcp_options_are_checked_after_the_fields():
    too_long = (TcpOption(TcpOption.KIND_SACK, b"\x00" * 40),)
    limit = (TcpOption(TcpOption.KIND_SACK, b"\x00" * 38),)
    base = dict(src_port=1234, dst_port=80)
    for fields in (dict(base, options=too_long), dict(base, options=limit),
                   dict(base, options=too_long, seq=-1), dict(base, options=limit, window=1.5)):
        assert _outcome(TcpHeader, fields) == _outcome(_tcp_field_checks, fields)


# --------------------------------------------------------------------- #
# The stored length is the length first use used to compute
# --------------------------------------------------------------------- #


def _computed_length(packet: Packet) -> int:
    """``total_length()`` as it was computed on first use (oracle)."""
    length = packet.ip.header_length()
    if packet.tcp is not None:
        length += packet.tcp.header_length() + len(packet.payload)
    elif packet.icmp is not None:
        length += packet.icmp.header_length() + len(packet.icmp.payload)
    else:
        length += len(packet.payload)
    return length


def test_stored_length_matches_the_computed_length_for_every_shape():
    plain = Packet.tcp_packet(SRC, DST, _tcp_header(), payload=b"x" * 100)
    mss = Packet.tcp_packet(SRC, DST, _tcp_header(options=(TcpOption.mss(1460),)), payload=b"abc")
    padded = Packet.tcp_packet(SRC, DST, _tcp_header(options=(TcpOption(TcpOption.KIND_SACK, b"\x00" * 5),)))
    echo = Packet.icmp_packet(SRC, DST, IcmpEcho(ICMP_ECHO_REQUEST, identifier=1, sequence=2, payload=b"ping"))
    error = Packet.icmp_error_packet(DST, SRC, IcmpError(ICMP_TTL_EXCEEDED, quoted=quote_packet(plain)))
    bare = Packet(IPv4Header(SRC, DST, PROTO_UDP), payload=b"datagram")
    packets = [plain, mss, padded, echo, error, bare]
    assert [packet.total_length() for packet in packets] == [140, 47, 48, 32, 56, 28]
    rewritten = [
        _rewrite_ip(plain, ttl=3),
        _rewrite_tcp(mss, seq=5),
        _rewrite_tcp(plain, options=(TcpOption.mss(536),)),
        _rewrite_tcp(mss, options=()),
        _rewrite_ip(echo, ident=9),
        _rewrite_ip(error, tos=4),
    ]
    for packet in packets + rewritten:
        assert packet.total_length() == _computed_length(packet), packet.describe()
    assert [packet.total_length() for packet in rewritten] == [140, 47, 144, 43, 32, 56]


def test_priced_options_read_the_same_lengths_and_keep_the_40_byte_check():
    plain = (TcpOption.mss(1460), TcpOption(TcpOption.KIND_SACK, b"\x00" * 5))
    priced = PricedOptions(plain)
    assert priced == plain and hash(priced) == hash(plain)
    header = _tcp_header(options=priced)
    assert header == _tcp_header(options=plain) and header.header_length() == 32
    packet = Packet.tcp_packet(SRC, DST, header, payload=b"abc")
    assert packet.total_length() == _computed_length(packet) == 55
    copied = pickle.loads(pickle.dumps(header)).options
    assert type(copied) is PricedOptions and copied.header_bytes == 32
    with pytest.raises(ValueError, match="options too long"):
        _tcp_header(options=PricedOptions((TcpOption(TcpOption.KIND_SACK, b"\x00" * 40),)))
