"""Packet models and wire formats.

This package provides the protocol-level substrate used by the simulator and
the measurement techniques: IPv4 / TCP / ICMP header models,
TCP sequence-number arithmetic, the Internet checksum, and byte-level
serialization / parsing.

The models are deliberately faithful to the on-the-wire layouts so that the
measurement code exercises the same fields a real implementation would (IPID,
sequence and acknowledgment numbers, TCP flags, ports, MSS and window
advertisements).
"""

from repro.net.checksum import internet_checksum
from repro.net.errors import PacketError, ParseError, ReproError, SerializationError
from repro.net.icmp import (
    CODE_FRAG_NEEDED,
    ICMP_DEST_UNREACHABLE,
    ICMP_ERROR_TYPES,
    ICMP_SOURCE_QUENCH,
    ICMP_TTL_EXCEEDED,
    IcmpError,
    QuotedFlow,
    parse_icmp_error,
    quote_packet,
)
from repro.net.packet import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IcmpEcho,
    IPv4Header,
    Packet,
    TcpFlags,
    TcpHeader,
    TcpOption,
)
from repro.net.seqnum import (
    SEQ_MODULO,
    seq_add,
    seq_diff,
    seq_ge,
    seq_gt,
    seq_le,
    seq_lt,
)
from repro.net.wire import parse_packet, serialize_packet

__all__ = [
    "CODE_FRAG_NEEDED",
    "ICMP_DEST_UNREACHABLE",
    "ICMP_ECHO_REPLY",
    "ICMP_ECHO_REQUEST",
    "ICMP_ERROR_TYPES",
    "ICMP_SOURCE_QUENCH",
    "ICMP_TTL_EXCEEDED",
    "IPv4Header",
    "IcmpEcho",
    "IcmpError",
    "Packet",
    "QuotedFlow",
    "PacketError",
    "ParseError",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "ReproError",
    "SEQ_MODULO",
    "SerializationError",
    "TcpFlags",
    "TcpHeader",
    "TcpOption",
    "internet_checksum",
    "parse_icmp_error",
    "parse_packet",
    "quote_packet",
    "seq_add",
    "seq_diff",
    "seq_ge",
    "seq_gt",
    "seq_le",
    "seq_lt",
    "serialize_packet",
]
