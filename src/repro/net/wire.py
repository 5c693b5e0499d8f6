"""Byte-level serialization and parsing of the packet models.

The simulator itself moves :class:`~repro.net.packet.Packet` objects around,
but the trace subsystem can persist packets in wire format and the test suite
uses round-tripping through bytes as a strong structural invariant (any field
the measurement techniques rely on must survive serialization).
"""

from __future__ import annotations

import struct

from repro.net.checksum import internet_checksum, pseudo_header_sum
from repro.net.errors import ParseError, SerializationError
from repro.net.icmp import ICMP_ERROR_TYPES, IcmpError, parse_icmp_error
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    IPV4_HEADER_LEN,
    PROTO_ICMP,
    PROTO_TCP,
    IcmpEcho,
    IPv4Header,
    Packet,
    TcpFlags,
    TcpHeader,
    TcpOption,
)

_IP_FORMAT = "!BBHHHBBHII"
_TCP_FORMAT = "!HHIIBBHHH"
_ICMP_FORMAT = "!BBHHH"

_FLAG_DF = 0x4000


def _serialize_options(options: tuple[TcpOption, ...]) -> bytes:
    parts: list[bytes] = []
    for option in options:
        if option.kind in (TcpOption.KIND_EOL, TcpOption.KIND_NOP):
            parts.append(bytes([option.kind]))
        else:
            length = 2 + len(option.data)
            if length > 255:
                raise SerializationError(f"TCP option too long: {length} bytes")
            parts.append(bytes([option.kind, length]) + option.data)
    raw = b"".join(parts)
    padding = (-len(raw)) % 4
    return raw + b"\x01" * padding


def _parse_options(raw: bytes) -> tuple[TcpOption, ...]:
    options: list[TcpOption] = []
    index = 0
    while index < len(raw):
        kind = raw[index]
        if kind == TcpOption.KIND_EOL:
            break
        if kind == TcpOption.KIND_NOP:
            index += 1
            continue
        if index + 1 >= len(raw):
            raise ParseError("truncated TCP option header")
        length = raw[index + 1]
        if length < 2 or index + length > len(raw):
            raise ParseError(f"bad TCP option length {length}")
        options.append(TcpOption(kind, raw[index + 2 : index + length]))
        index += length
    return tuple(options)


def serialize_packet(packet: Packet) -> bytes:
    """Serialize a packet model to on-the-wire bytes with valid checksums.

    Serialization is lazy and cached on the packet: the first call does the
    work, repeat calls (trace persistence, round-trip tests, corruption
    models re-reading the same packet) return the same ``bytes`` object.
    The cache is sound because headers are frozen and packets are treated as
    immutable after construction — every rewrite (the NAT and ECN
    middleboxes) builds a new :class:`~repro.net.packet.Packet` with an
    empty cache.
    """
    cached = packet._wire
    if cached is not None:
        return cached
    packet._wire = wire = _serialize_packet_uncached(packet)
    return wire


def _serialize_packet_uncached(packet: Packet) -> bytes:
    """Build the wire image in one preallocated buffer — no slice-and-concat.

    Headers are packed straight into a single ``bytearray`` of the final
    size with ``struct.pack_into``; checksums are computed over
    :class:`memoryview` windows of that same buffer (the checksum fields are
    still zero at that point) and patched in place.  The old path built each
    layer as separate ``bytes``, then copied twice more to splice each
    checksum in.
    """
    if packet.tcp is not None:
        options = _serialize_options(packet.tcp.options)
        transport_length = 20 + len(options) + len(packet.payload)
    elif packet.icmp is not None:
        transport_length = 8 + len(packet.icmp.payload)
    else:
        options = b""
        transport_length = len(packet.payload)
    total_length = IPV4_HEADER_LEN + transport_length
    if total_length > 0xFFFF:
        raise SerializationError(f"packet too large: {total_length} bytes")
    flags_fragment = _FLAG_DF if packet.ip.dont_fragment else 0
    buffer = bytearray(total_length)
    struct.pack_into(
        _IP_FORMAT,
        buffer,
        0,
        (4 << 4) | 5,
        packet.ip.tos,
        total_length,
        packet.ip.ident,
        flags_fragment,
        packet.ip.ttl,
        packet.ip.protocol,
        0,
        packet.ip.src,
        packet.ip.dst,
    )
    view = memoryview(buffer)
    if packet.tcp is not None:
        _pack_tcp(buffer, view, packet, options)
    elif packet.icmp is not None:
        _pack_icmp(buffer, view, packet.icmp)
    elif packet.payload:
        buffer[IPV4_HEADER_LEN:] = packet.payload
    struct.pack_into("!H", buffer, 10, internet_checksum(view[:IPV4_HEADER_LEN]))
    return bytes(buffer)


def _pack_tcp(buffer: bytearray, view: memoryview, packet: Packet, options: bytes) -> None:
    tcp = packet.tcp
    assert tcp is not None
    base = IPV4_HEADER_LEN
    data_offset = (20 + len(options)) // 4
    struct.pack_into(
        _TCP_FORMAT,
        buffer,
        base,
        tcp.src_port,
        tcp.dst_port,
        tcp.seq,
        tcp.ack,
        data_offset << 4,
        int(tcp.flags),
        tcp.window,
        0,
        tcp.urgent,
    )
    if options:
        buffer[base + 20 : base + 20 + len(options)] = options
    if packet.payload:
        buffer[base + 20 + len(options) :] = packet.payload
    segment = view[base:]
    pseudo = pseudo_header_sum(packet.ip.src, packet.ip.dst, PROTO_TCP, len(segment))
    struct.pack_into("!H", buffer, base + 16, internet_checksum(segment, initial=pseudo))


def _pack_icmp(buffer: bytearray, view: memoryview, icmp: "IcmpEcho | IcmpError") -> None:
    base = IPV4_HEADER_LEN
    if isinstance(icmp, IcmpError):
        # Errors reuse the echo header layout: the second header word is
        # (unused16, next-hop-MTU16), where the MTU half is zero except on
        # fragmentation-needed (RFC 1191).
        struct.pack_into(
            _ICMP_FORMAT, buffer, base, icmp.icmp_type, icmp.code, 0, 0, icmp.next_hop_mtu
        )
        tail = icmp.quoted
    else:
        struct.pack_into(
            _ICMP_FORMAT, buffer, base, icmp.icmp_type, 0, 0, icmp.identifier, icmp.sequence
        )
        tail = icmp.payload
    if tail:
        buffer[base + 8 :] = tail
    struct.pack_into("!H", buffer, base + 2, internet_checksum(view[base:]))


def parse_packet(data: "bytes | bytearray | memoryview") -> Packet:
    """Parse wire bytes back into a packet model.

    Accepts any bytes-like buffer; headers are read in place with
    ``struct.unpack_from`` over a :class:`memoryview` (no intermediate
    slice copies — only leaf fields such as payloads and ICMP quotes are
    materialised as ``bytes``).

    Raises
    ------
    ParseError
        If the buffer is truncated, has an unsupported IP version or header
        length, or carries a transport protocol other than TCP or ICMP echo.
    """
    if len(data) < IPV4_HEADER_LEN:
        raise ParseError(f"buffer too short for IPv4 header: {len(data)} bytes")
    (
        version_ihl,
        tos,
        total_length,
        ident,
        flags_fragment,
        ttl,
        protocol,
        _checksum,
        src,
        dst,
    ) = struct.unpack_from(_IP_FORMAT, data, 0)
    version = version_ihl >> 4
    ihl = (version_ihl & 0x0F) * 4
    if version != 4:
        raise ParseError(f"unsupported IP version: {version}")
    if ihl != IPV4_HEADER_LEN:
        raise ParseError(f"IP options are not supported (ihl={ihl})")
    if total_length > len(data):
        raise ParseError("IP total length exceeds buffer")
    body = memoryview(data)[IPV4_HEADER_LEN:total_length]
    ip = IPv4Header(
        src=src,
        dst=dst,
        protocol=protocol,
        ident=ident,
        ttl=ttl,
        dont_fragment=bool(flags_fragment & _FLAG_DF),
        tos=tos,
    )
    if protocol == PROTO_TCP:
        tcp, payload = _parse_tcp(body)
        return Packet(ip=ip, tcp=tcp, payload=payload)
    if protocol == PROTO_ICMP:
        icmp = _parse_icmp(body)
        return Packet(ip=ip, icmp=icmp, payload=icmp.payload)
    raise ParseError(f"unsupported transport protocol: {protocol}")


def _parse_tcp(body: memoryview) -> tuple[TcpHeader, bytes]:
    if len(body) < 20:
        raise ParseError(f"buffer too short for TCP header: {len(body)} bytes")
    (
        src_port,
        dst_port,
        seq,
        ack,
        offset_reserved,
        flags,
        window,
        _checksum,
        urgent,
    ) = struct.unpack_from(_TCP_FORMAT, body, 0)
    header_length = (offset_reserved >> 4) * 4
    if header_length < 20 or header_length > len(body):
        raise ParseError(f"bad TCP data offset: {header_length}")
    options = _parse_options(bytes(body[20:header_length]))
    tcp = TcpHeader(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=TcpFlags(flags),
        window=window,
        urgent=urgent,
        options=options,
    )
    return tcp, bytes(body[header_length:])


def _parse_icmp(body: memoryview) -> "IcmpEcho | IcmpError":
    if len(body) < 8:
        raise ParseError(f"buffer too short for ICMP message: {len(body)} bytes")
    icmp_type, code, _checksum, identifier, sequence = struct.unpack_from(_ICMP_FORMAT, body, 0)
    if icmp_type in ICMP_ERROR_TYPES:
        # ICMP error models keep their quote as real ``bytes`` (it is
        # compared and re-serialized), so materialise the message here.
        return parse_icmp_error(bytes(body))
    if icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY) or code != 0:
        raise ParseError(f"unsupported ICMP type/code: {icmp_type}/{code}")
    return IcmpEcho(
        icmp_type=icmp_type, identifier=identifier, sequence=sequence, payload=bytes(body[8:])
    )
