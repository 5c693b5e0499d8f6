"""Property tests for the ICMP error model and its wire codec.

Round-trips every ICMP message type the simulator speaks (echo request and
reply, TTL exceeded, fragmentation needed, source quench) through
``serialize_packet``/``parse_packet``, pins the embedded ICMP checksum to the
byte-at-a-time :func:`reference_checksum` oracle, and checks that truncated
or structurally corrupted buffers are rejected with :class:`ParseError`
rather than mis-parsed.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.checksum import internet_checksum
from repro.net.errors import ParseError
from repro.net.icmp import (
    CODE_FRAG_NEEDED,
    ICMP_DEST_UNREACHABLE,
    ICMP_SOURCE_QUENCH,
    ICMP_TTL_EXCEEDED,
    QUOTE_LIMIT,
    IcmpError,
    QuotedFlow,
    parse_icmp_error,
    quote_packet,
)
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    PROTO_TCP,
    IcmpEcho,
    Packet,
    TcpHeader,
)
from repro.net.wire import parse_packet, serialize_packet
from test_net_checksum import reference_checksum

addresses = st.integers(min_value=1, max_value=0xFFFFFFFE)
ports = st.integers(min_value=1, max_value=0xFFFF)
idents = st.integers(min_value=0, max_value=0xFFFF)
quotes = st.binary(max_size=QUOTE_LIMIT + 12)

ttl_exceeded_errors = st.builds(
    lambda quoted: IcmpError(ICMP_TTL_EXCEEDED, quoted=quoted), quotes
)
source_quench_errors = st.builds(
    lambda quoted: IcmpError(ICMP_SOURCE_QUENCH, quoted=quoted), quotes
)
frag_needed_errors = st.builds(
    lambda mtu, quoted: IcmpError(
        ICMP_DEST_UNREACHABLE, code=CODE_FRAG_NEEDED, next_hop_mtu=mtu, quoted=quoted
    ),
    st.integers(min_value=0, max_value=0xFFFF),
    quotes,
)
unreachable_errors = st.builds(
    lambda code, quoted: IcmpError(ICMP_DEST_UNREACHABLE, code=code, quoted=quoted),
    st.integers(min_value=0, max_value=255),
    quotes,
)
icmp_errors = st.one_of(
    ttl_exceeded_errors, source_quench_errors, frag_needed_errors, unreachable_errors
)

echo_messages = st.builds(
    IcmpEcho,
    st.sampled_from((ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY)),
    identifier=idents,
    sequence=idents,
    payload=st.binary(max_size=64),
)


# --------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------- #


@given(addresses, addresses, idents, icmp_errors)
@settings(max_examples=200, deadline=None)
def test_every_error_type_round_trips_through_the_wire(src, dst, ident, error):
    packet = Packet.icmp_error_packet(src, dst, error, ident=ident)
    parsed = parse_packet(serialize_packet(packet))
    assert isinstance(parsed.icmp, IcmpError)
    assert parsed.icmp == error
    assert parsed.ip.src == src
    assert parsed.ip.dst == dst
    assert parsed.ip.ident == ident
    assert parsed.payload == error.quoted


@given(addresses, addresses, idents, echo_messages)
@settings(max_examples=100, deadline=None)
def test_echo_request_and_reply_round_trip(src, dst, ident, echo):
    packet = Packet.icmp_packet(src, dst, echo, ident=ident)
    parsed = parse_packet(serialize_packet(packet))
    assert not isinstance(parsed.icmp, IcmpError)
    assert parsed.icmp == echo


@given(addresses, addresses, ports, ports)
@settings(max_examples=100, deadline=None)
def test_quoted_flow_recovers_the_offending_four_tuple(src, dst, sport, dport):
    original = Packet.tcp_packet(
        src, dst, TcpHeader(src_port=sport, dst_port=dport), payload=b"abcdefgh"
    )
    quoted = quote_packet(original)
    for error in (
        IcmpError(ICMP_TTL_EXCEEDED, quoted=quoted),
        IcmpError.frag_needed(original, next_hop_mtu=576),
        IcmpError(ICMP_SOURCE_QUENCH, quoted=quoted),
    ):
        flow = error.quoted_flow()
        assert flow == QuotedFlow(src, dst, PROTO_TCP, sport, dport)
        # The round-tripped error recovers the same flow from the same quote.
        wire = parse_packet(serialize_packet(Packet.icmp_error_packet(dst, src, error)))
        assert wire.icmp.quoted_flow() == flow


def test_quote_is_capped_at_the_rfc792_limit():
    original = Packet.tcp_packet(
        1, 2, TcpHeader(src_port=1000, dst_port=80), payload=b"x" * 400
    )
    assert len(quote_packet(original)) == QUOTE_LIMIT


# --------------------------------------------------------------------- #
# Checksums: the embedded ICMP checksum matches the reference oracle
# --------------------------------------------------------------------- #


@given(addresses, addresses, icmp_errors)
@settings(max_examples=200, deadline=None)
def test_error_checksum_matches_reference_oracle(src, dst, error):
    raw = serialize_packet(Packet.icmp_error_packet(src, dst, error))
    body = raw[20:]
    embedded = struct.unpack("!H", body[2:4])[0]
    zeroed = body[:2] + b"\x00\x00" + body[4:]
    assert embedded == reference_checksum(zeroed)
    assert internet_checksum(body) == 0
    assert internet_checksum(raw[:20]) == 0  # the IP header checksum too


@given(addresses, addresses, echo_messages)
@settings(max_examples=100, deadline=None)
def test_echo_checksum_matches_reference_oracle(src, dst, echo):
    raw = serialize_packet(Packet.icmp_packet(src, dst, echo))
    body = raw[20:]
    embedded = struct.unpack("!H", body[2:4])[0]
    assert embedded == reference_checksum(body[:2] + b"\x00\x00" + body[4:])
    assert internet_checksum(body) == 0


# --------------------------------------------------------------------- #
# Truncation and corruption rejection
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "error",
    [
        IcmpError(ICMP_TTL_EXCEEDED, quoted=b"q" * 20),
        IcmpError(
            ICMP_DEST_UNREACHABLE, code=CODE_FRAG_NEEDED, next_hop_mtu=576, quoted=b"q" * 20
        ),
        IcmpError(ICMP_SOURCE_QUENCH, quoted=b"q" * 20),
    ],
    ids=["ttl-exceeded", "frag-needed", "source-quench"],
)
def test_every_truncation_point_is_rejected(error):
    raw = serialize_packet(Packet.icmp_error_packet(1, 2, error))
    for cut in range(len(raw)):
        with pytest.raises(ParseError):
            parse_packet(raw[:cut])


def test_unknown_icmp_type_is_rejected():
    raw = bytearray(serialize_packet(Packet.icmp_error_packet(1, 2, IcmpError(ICMP_TTL_EXCEEDED))))
    raw[20] = 99  # ICMP type byte
    with pytest.raises(ParseError):
        parse_packet(bytes(raw))


def test_nonzero_unused_word_on_ttl_exceeded_is_rejected():
    raw = bytearray(serialize_packet(Packet.icmp_error_packet(1, 2, IcmpError(ICMP_TTL_EXCEEDED))))
    raw[25] = 7  # low byte of the "unused" header word
    with pytest.raises(ParseError):
        parse_packet(bytes(raw))


def test_mtu_on_non_frag_needed_unreachable_is_rejected():
    error = IcmpError(
        ICMP_DEST_UNREACHABLE, code=CODE_FRAG_NEEDED, next_hop_mtu=576, quoted=b"q" * 8
    )
    raw = bytearray(serialize_packet(Packet.icmp_error_packet(1, 2, error)))
    raw[21] = 1  # host-unreachable code, but the MTU field is still set
    with pytest.raises(ParseError):
        parse_packet(bytes(raw))


@given(st.binary(max_size=7))
@settings(max_examples=50, deadline=None)
def test_parse_icmp_error_rejects_short_bodies(body):
    with pytest.raises(ParseError):
        parse_icmp_error(body)


def test_short_quotes_yield_no_flow():
    assert IcmpError(ICMP_TTL_EXCEEDED, quoted=b"").quoted_flow() is None
    assert IcmpError(ICMP_TTL_EXCEEDED, quoted=b"x" * 19).quoted_flow() is None


# --------------------------------------------------------------------- #
# Model validation
# --------------------------------------------------------------------- #


def test_constructor_rejects_non_error_types_and_bad_fields():
    with pytest.raises(ValueError):
        IcmpError(ICMP_ECHO_REQUEST)
    with pytest.raises(ValueError):
        IcmpError(ICMP_TTL_EXCEEDED, code=256)
    with pytest.raises(ValueError):
        IcmpError(ICMP_DEST_UNREACHABLE, code=CODE_FRAG_NEEDED, next_hop_mtu=0x10000)
    with pytest.raises(ValueError):
        IcmpError(ICMP_TTL_EXCEEDED, next_hop_mtu=576)  # MTU only on frag-needed


def test_predicates_and_describe():
    original = Packet.tcp_packet(1, 2, TcpHeader(src_port=3, dst_port=80))
    frag = IcmpError.frag_needed(original, next_hop_mtu=296)
    assert frag.is_frag_needed() and not frag.is_ttl_exceeded()
    assert "mtu=296" in frag.describe()
    ttl = IcmpError(ICMP_TTL_EXCEEDED, quoted=quote_packet(original))
    assert ttl.is_ttl_exceeded() and not ttl.is_source_quench()
    assert "3>2:80" in ttl.describe()
    assert IcmpError(ICMP_SOURCE_QUENCH, quoted=quote_packet(original)).is_source_quench()
