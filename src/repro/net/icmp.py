"""First-class ICMP error messages: the hostile internet's control channel.

The paper's methodology is defined partly by what it does *not* rely on:
ICMP.  Filtering and rate limiting break ping-based measurement (Bennett et
al.), PMTUD black holes eat fragmentation-needed errors, and load balancers
mishandle errors that quote someone else's packet.  Modelling those failure
modes requires the errors themselves, so this module provides the typed ICMP
error messages the middlebox layer generates and consumes.  The middleboxes
build one kind, :meth:`IcmpError.frag_needed` (type 3 code 4: a router
refused a too-big DF packet and advertises its next-hop MTU).  Time exceeded
(type 11) and the deprecated source quench (type 4), which 2002-era paths
still emitted, decode and encode too.

Every error quotes the offending packet (original IP header plus the first
eight payload bytes, per RFC 792), and :meth:`IcmpError.quoted_flow` recovers
the transport addresses and ports from that quote — exactly what a NAT or
load balancer must do to route an error to the flow that caused it.

Echo request/reply live in :mod:`repro.net.packet` (:class:`IcmpEcho`); the
wire codec for both lives in :mod:`repro.net.wire`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.errors import ParseError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (packet imports nothing from here)
    from repro.net.packet import Packet

ICMP_DEST_UNREACHABLE = 3
ICMP_SOURCE_QUENCH = 4
ICMP_TTL_EXCEEDED = 11

CODE_FRAG_NEEDED = 4
"""Destination-unreachable code for "fragmentation needed and DF set"."""

ICMP_ERROR_TYPES = (ICMP_DEST_UNREACHABLE, ICMP_SOURCE_QUENCH, ICMP_TTL_EXCEEDED)

QUOTE_LIMIT = 28
"""RFC 792 quote: the original IPv4 header (20 bytes) plus 8 payload bytes."""

_QUOTED_IP_FORMAT = "!BBHHHBBHII"


@dataclass(frozen=True, slots=True)
class QuotedFlow:
    """The transport identity recovered from an ICMP error's quoted bytes."""

    src: int
    dst: int
    protocol: int
    src_port: Optional[int] = None
    dst_port: Optional[int] = None


@dataclass(frozen=True, slots=True)
class IcmpError:
    """An ICMP error message quoting the packet that triggered it.

    ``next_hop_mtu`` is meaningful only for fragmentation-needed (type 3
    code 4); it occupies the low 16 bits of the otherwise-unused second
    header word, as RFC 1191 specifies.  ``quoted`` carries the offending
    packet's leading wire bytes (at most :data:`QUOTE_LIMIT`).
    """

    icmp_type: int
    code: int = 0
    next_hop_mtu: int = 0
    quoted: bytes = b""

    def __post_init__(self) -> None:
        if self.icmp_type not in ICMP_ERROR_TYPES:
            raise ValueError(f"unsupported ICMP error type: {self.icmp_type}")
        if not 0 <= self.code <= 255:
            raise ValueError(f"ICMP code out of range: {self.code}")
        if not 0 <= self.next_hop_mtu <= 0xFFFF:
            raise ValueError(f"next-hop MTU out of range: {self.next_hop_mtu}")
        if self.next_hop_mtu and not self.is_frag_needed():
            raise ValueError("next_hop_mtu is only meaningful for fragmentation-needed")

    # ------------------------------------------------------------------ #
    # Constructor quoting an offending packet
    # ------------------------------------------------------------------ #

    @classmethod
    def frag_needed(cls, original: "Packet", next_hop_mtu: int) -> "IcmpError":
        """A router's fragmentation-needed error advertising its next-hop MTU."""
        return cls(
            ICMP_DEST_UNREACHABLE,
            code=CODE_FRAG_NEEDED,
            next_hop_mtu=next_hop_mtu,
            quoted=quote_packet(original),
        )

    # ------------------------------------------------------------------ #
    # Shape shared with IcmpEcho so Packet treats both uniformly
    # ------------------------------------------------------------------ #

    @property
    def payload(self) -> bytes:
        """The message body after the 8-byte ICMP header (the quote)."""
        return self.quoted

    def header_length(self) -> int:
        """Return the ICMP error header length in bytes."""
        return 8

    def is_request(self) -> bool:
        """ICMP errors are never echo requests (parity with IcmpEcho)."""
        return False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def is_frag_needed(self) -> bool:
        """True for destination-unreachable / fragmentation-needed."""
        return self.icmp_type == ICMP_DEST_UNREACHABLE and self.code == CODE_FRAG_NEEDED

    def is_ttl_exceeded(self) -> bool:
        """True for time-exceeded-in-transit."""
        return self.icmp_type == ICMP_TTL_EXCEEDED

    def is_source_quench(self) -> bool:
        """True for source quench."""
        return self.icmp_type == ICMP_SOURCE_QUENCH

    def quoted_flow(self) -> Optional[QuotedFlow]:
        """Recover the quoted packet's transport identity, if enough was quoted.

        Returns None when fewer than 20 bytes were quoted (no complete IP
        header).  For TCP and UDP quotes with at least four transport bytes
        the ports are recovered as well; otherwise they are left None.
        """
        if len(self.quoted) < 20:
            return None
        (
            version_ihl,
            _tos,
            _total_length,
            _ident,
            _flags_fragment,
            _ttl,
            protocol,
            _checksum,
            src,
            dst,
        ) = struct.unpack(_QUOTED_IP_FORMAT, self.quoted[:20])
        ihl = (version_ihl & 0x0F) * 4
        if (version_ihl >> 4) != 4 or ihl < 20:
            return None
        transport = self.quoted[ihl:]
        src_port: Optional[int] = None
        dst_port: Optional[int] = None
        if protocol in (6, 17) and len(transport) >= 4:
            src_port, dst_port = struct.unpack("!HH", transport[:4])
        return QuotedFlow(src=src, dst=dst, protocol=protocol, src_port=src_port, dst_port=dst_port)

    def describe(self) -> str:
        """Return a compact human-readable rendering for logs and traces."""
        if self.is_ttl_exceeded():
            kind = "ttl-exceeded"
        elif self.is_frag_needed():
            kind = f"frag-needed mtu={self.next_hop_mtu}"
        elif self.is_source_quench():
            kind = "source-quench"
        else:  # pragma: no cover - constructor rejects other types
            kind = f"type={self.icmp_type}/{self.code}"
        flow = self.quoted_flow()
        if flow is not None and flow.src_port is not None:
            return f"{kind} quoting {flow.src}:{flow.src_port}>{flow.dst}:{flow.dst_port}"
        return kind


def quote_packet(original: "Packet") -> bytes:
    """Return the RFC 792 quote of ``original``: IP header + 8 payload bytes."""
    from repro.net.wire import serialize_packet

    return serialize_packet(original)[:QUOTE_LIMIT]


def parse_icmp_error(body: bytes) -> IcmpError:
    """Parse an ICMP error message body (header + quote) into a model.

    Raises
    ------
    ParseError
        If the buffer is shorter than the 8-byte ICMP header, the type is not
        an error type, or a frag-needed message is malformed.
    """
    if len(body) < 8:
        raise ParseError(f"buffer too short for ICMP error: {len(body)} bytes")
    icmp_type, code, _checksum, unused, mtu = struct.unpack("!BBHHH", body[:8])
    if icmp_type not in ICMP_ERROR_TYPES:
        raise ParseError(f"unsupported ICMP error type: {icmp_type}")
    if icmp_type != ICMP_DEST_UNREACHABLE and (unused or mtu):
        raise ParseError(f"non-zero unused field on ICMP type {icmp_type}")
    next_hop_mtu = mtu if (icmp_type == ICMP_DEST_UNREACHABLE and code == CODE_FRAG_NEEDED) else 0
    if icmp_type == ICMP_DEST_UNREACHABLE and code != CODE_FRAG_NEEDED and mtu:
        raise ParseError(f"next-hop MTU on non-frag-needed unreachable code {code}")
    try:
        return IcmpError(
            icmp_type=icmp_type, code=code, next_hop_mtu=next_hop_mtu, quoted=body[8:]
        )
    except ValueError as error:
        raise ParseError(str(error)) from None
