"""In-memory packet models: IPv4, TCP, and ICMP.

These models are the currency of the whole library: the probe host
crafts them, the simulator carries and reorders them, endpoints interpret
them, and the trace capture records them.  They mirror the real header
layouts closely enough that :mod:`repro.net.wire` can serialize them to valid
byte strings.

ICMP comes in two shapes: echo request/reply (:class:`IcmpEcho`, defined
here) and the error messages routers and middleboxes generate
(:class:`repro.net.icmp.IcmpError` — TTL exceeded, fragmentation needed,
source quench).  A :class:`Packet` carries either in its ``icmp`` slot; both
expose the same ``payload`` / ``header_length()`` / ``is_request()`` shape.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Optional, Union

from repro.net.flow import format_address
from repro.net.icmp import IcmpError

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

ICMP_ECHO_REPLY = 0
ICMP_ECHO_REQUEST = 8

IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20
ICMP_HEADER_LEN = 8
MAX_TCP_OPTION_BYTES = 40
"""A 4-bit data offset counts at most 15 words: 20 header bytes plus 40."""

DEFAULT_TTL = 64


class TcpFlags(enum.IntFlag):
    """TCP control flags (subset relevant to the measurement techniques)."""

    NONE = 0
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20

    def describe(self) -> str:
        """Return a compact human-readable flag string, e.g. ``"SYN|ACK"``."""
        if self == TcpFlags.NONE:
            return "-"
        names = [flag.name for flag in TcpFlags if flag and flag in self and flag.name]
        return "|".join(names)


@dataclass(frozen=True, slots=True)
class TcpOption:
    """A single TCP option as (kind, data) — enough for MSS and SACK-permitted."""

    kind: int
    data: bytes = b""

    KIND_EOL = 0
    KIND_NOP = 1
    KIND_MSS = 2
    KIND_SACK_PERMITTED = 4
    KIND_SACK = 5

    @classmethod
    def mss(cls, value: int) -> "TcpOption":
        """Build a Maximum Segment Size option advertising ``value`` bytes."""
        if value < 0 or value > 0xFFFF:
            raise ValueError(f"MSS out of range: {value}")
        return cls(cls.KIND_MSS, value.to_bytes(2, "big"))

    def mss_value(self) -> int:
        """Decode the MSS value carried by this option."""
        if self.kind != self.KIND_MSS or len(self.data) != 2:
            raise ValueError("not an MSS option")
        return int.from_bytes(self.data, "big")

    def encoded_length(self) -> int:
        """Return the option's on-the-wire length in bytes."""
        if self.kind in (self.KIND_EOL, self.KIND_NOP):
            return 1
        return 2 + len(self.data)


def _option_bytes(options: tuple[TcpOption, ...]) -> int:
    """Return the encoded length of ``options`` in bytes, before padding."""
    return sum(option.encoded_length() for option in options)


class PricedOptions(tuple):
    """A constant option tuple that carries its encoded lengths.

    A header and a packet built with one read ``option_bytes`` and
    ``header_bytes`` instead of summing the options, so pricing it costs no
    Python frame per packet; the 40-byte check still runs.  It equals, and
    hashes as, the plain tuple of the same options.
    """

    option_bytes: int
    header_bytes: int

    def __new__(cls, options: Iterable[TcpOption]) -> "PricedOptions":
        self = super().__new__(cls, options)
        self.option_bytes = _option_bytes(self)
        self.header_bytes = TCP_HEADER_LEN + (self.option_bytes + 3) // 4 * 4
        return self


# Headers are tuples validated once in ``__new__``: every simulated packet
# builds two, and a tuple is one allocation where a frozen dataclass pays an
# ``object.__setattr__`` per field.  The NamedTuple bases supply the field
# descriptors, defaults and ``repr``; each header class overrides ``__new__``.
#
# ``__new__`` decides with one range test over OR-ed fields: an int shifted
# right by its slot width is 0 exactly when it fits.  Any other value (out of
# range, negative, a float, ``None``) goes to the per-field checks, which
# raise the first bad field's error; an in-range float or bool passes them.
_tuple_new = tuple.__new__


def _reject_out_of_range(*checks: tuple[str, Any, int]) -> None:
    """Raise for the first ``(label, value, limit)`` whose value is not in ``[0, limit]``."""
    for label, value, limit in checks:
        if not 0 <= value <= limit:
            raise ValueError(f"{label} out of range: {value}")


class _Revalidated:
    """Routes every other way of building a header through its ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> Any:
        """Build a header from its fields (``_replace`` and ``copy.replace`` call this)."""
        return cls(*iterable)

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        # Pickles and copies rebuild by calling the class.  Without this,
        # pickle protocols 0 and 1 rebuild the bare tuple past ``__new__``.
        return type(self), tuple(self)  # type: ignore[call-overload]


class _IPv4Fields(NamedTuple):
    src: int
    dst: int
    protocol: int
    ident: int = 0
    ttl: int = DEFAULT_TTL
    dont_fragment: bool = True
    tos: int = 0


class IPv4Header(_Revalidated, _IPv4Fields):
    """The IPv4 fields the library cares about.

    ``ident`` is the IP identification field (IPID) at the heart of the dual
    connection test; everything else exists so that serialized packets are
    well-formed and so path elements can reason about sizes and TTLs.
    Immutable: every field the wire codec packs is range-checked here.
    """

    __slots__ = ()

    def __new__(
        cls,
        src: int,
        dst: int,
        protocol: int,
        ident: int = 0,
        ttl: int = DEFAULT_TTL,
        dont_fragment: bool = True,
        tos: int = 0,
    ) -> "IPv4Header":
        try:
            valid = not ((src | dst) >> 32 or ident >> 16 or (ttl | protocol | tos) >> 8)
        except TypeError:
            valid = False
        if not valid:
            _reject_out_of_range(
                ("IPID", ident, 0xFFFF), ("TTL", ttl, 0xFF), ("protocol", protocol, 0xFF),
                ("src address", src, 0xFFFFFFFF), ("dst address", dst, 0xFFFFFFFF), ("TOS", tos, 0xFF),
            )
        return _tuple_new(cls, (src, dst, protocol, ident, ttl, dont_fragment, tos))

    def header_length(self) -> int:
        """Return the header length in bytes (no options are modelled)."""
        return IPV4_HEADER_LEN


class _TcpFields(NamedTuple):
    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: TcpFlags = TcpFlags.NONE
    window: int = 65535
    urgent: int = 0
    options: tuple[TcpOption, ...] = ()


class TcpHeader(_Revalidated, _TcpFields):
    """TCP header fields used by the measurement techniques.

    Immutable: every field the wire codec packs is range-checked here, and
    the options must fit the 40 bytes a data offset can describe.
    """

    __slots__ = ()

    def __new__(
        cls,
        src_port: int,
        dst_port: int,
        seq: int = 0,
        ack: int = 0,
        flags: TcpFlags = TcpFlags.NONE,
        window: int = 65535,
        urgent: int = 0,
        options: tuple[TcpOption, ...] = (),
    ) -> "TcpHeader":
        # ``flags`` is shifted on its own: OR-ing an IntFlag builds a member.
        try:
            valid = not ((src_port | dst_port | window | urgent) >> 16 or (seq | ack) >> 32 or flags >> 8)
        except TypeError:
            valid = False
        if not valid:
            _reject_out_of_range(
                ("src_port", src_port, 0xFFFF), ("dst_port", dst_port, 0xFFFF),
                ("seq", seq, 0xFFFFFFFF), ("ack", ack, 0xFFFFFFFF), ("window", window, 0xFFFF),
                ("flags", flags, 0xFF), ("urgent", urgent, 0xFFFF),
            )
        if options:
            option_bytes = options.option_bytes if type(options) is PricedOptions else _option_bytes(options)
            if option_bytes > MAX_TCP_OPTION_BYTES:
                raise ValueError(f"options too long: {option_bytes} bytes (max {MAX_TCP_OPTION_BYTES})")
        return _tuple_new(cls, (src_port, dst_port, seq, ack, flags, window, urgent, options))

    def header_length(self) -> int:
        """Return the TCP header length in bytes, options padded to 32 bits."""
        options = self.options
        if not options:
            return TCP_HEADER_LEN
        return TCP_HEADER_LEN + (_option_bytes(options) + 3) // 4 * 4

    def has(self, flag: TcpFlags) -> bool:
        """Return True when ``flag`` is set on this segment.

        Uses ``int.__and__`` directly rather than ``IntFlag.__and__``: enum
        bitwise operators construct a new flag member per call, which made
        this (extremely hot) check several times more expensive.
        """
        return int.__and__(self.flags, flag) != 0

    def find_option(self, kind: int) -> Optional[TcpOption]:
        """Return the first option of the given kind, or None."""
        for option in self.options:
            if option.kind == kind:
                return option
        return None

    def mss(self) -> Optional[int]:
        """Return the advertised MSS if present."""
        option = self.find_option(TcpOption.KIND_MSS)
        return option.mss_value() if option is not None else None


@dataclass(frozen=True, slots=True)
class IcmpEcho:
    """An ICMP echo request or reply (used by the Bennett-style baseline)."""

    icmp_type: int
    identifier: int
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if self.icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            raise ValueError(f"unsupported ICMP type: {self.icmp_type}")
        for name in ("identifier", "sequence"):
            value = getattr(self, name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{name} out of range: {value}")

    def is_request(self) -> bool:
        """Return True for an echo request."""
        return self.icmp_type == ICMP_ECHO_REQUEST

    def header_length(self) -> int:
        """Return the ICMP echo header length in bytes."""
        return ICMP_HEADER_LEN


_next_uid = itertools.count(1).__next__
"""Packet uids: :func:`itertools.count`'s ``__next__`` is atomic under CPython,
so uids stay unique even when shard campaigns run on concurrent threads."""


@dataclass(slots=True, init=False)
class Packet:
    """A complete packet: IP header plus one transport header plus payload.

    ``uid`` is *not* an on-the-wire field: it is a process-wide unique,
    monotonically increasing identifier assigned at construction time that
    lets the trace capture and the validation harness establish ground truth
    about send order without consulting any header the network could
    legitimately rewrite.  ``wire_length`` is the packet's total length on the
    wire, computed once here: headers are immutable and the library treats
    packets as immutable after construction (every rewrite builds a new
    instance), and every link and queue along a path reads it.
    """

    ip: IPv4Header
    tcp: Optional[TcpHeader]
    icmp: Optional[Union[IcmpEcho, IcmpError]]
    payload: bytes
    uid: int
    wire_length: int = field(init=False, repr=False, compare=False)
    _wire: Optional[bytes] = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        ip: IPv4Header,
        tcp: Optional[TcpHeader] = None,
        icmp: Optional[Union[IcmpEcho, IcmpError]] = None,
        payload: bytes = b"",
        uid: Optional[int] = None,
    ) -> None:
        """Build a packet; ``uid=None`` draws a fresh uid (a forward passes the original's)."""
        if tcp is not None:
            if icmp is not None:
                raise ValueError("packet cannot carry both TCP and ICMP")
            if ip.protocol != PROTO_TCP:
                raise ValueError("TCP payload requires protocol 6")
            options = tcp.options
            if options:
                header = options.header_bytes if type(options) is PricedOptions else tcp.header_length()
                length = IPV4_HEADER_LEN + header + len(payload)
            else:
                length = IPV4_HEADER_LEN + TCP_HEADER_LEN + len(payload)
        elif icmp is not None:
            if ip.protocol != PROTO_ICMP:
                raise ValueError("ICMP payload requires protocol 1")
            length = IPV4_HEADER_LEN + icmp.header_length() + len(icmp.payload)
        else:
            length = IPV4_HEADER_LEN + len(payload)
        self.ip = ip
        self.tcp = tcp
        self.icmp = icmp
        self.payload = payload
        self.uid = _next_uid() if uid is None else uid
        self.wire_length = length
        self._wire = None

    @classmethod
    def tcp_packet(
        cls,
        src: int,
        dst: int,
        tcp: TcpHeader,
        payload: bytes = b"",
        ident: int = 0,
        ttl: int = DEFAULT_TTL,
    ) -> "Packet":
        """Convenience constructor for a TCP/IPv4 packet."""
        return cls(IPv4Header(src, dst, PROTO_TCP, ident, ttl), tcp, None, payload)

    @classmethod
    def icmp_packet(
        cls,
        src: int,
        dst: int,
        icmp: IcmpEcho,
        ident: int = 0,
        ttl: int = DEFAULT_TTL,
    ) -> "Packet":
        """Convenience constructor for an ICMP echo/IPv4 packet."""
        ip = IPv4Header(src=src, dst=dst, protocol=PROTO_ICMP, ident=ident, ttl=ttl)
        return cls(ip=ip, icmp=icmp, payload=icmp.payload)

    @classmethod
    def icmp_error_packet(
        cls,
        src: int,
        dst: int,
        error: IcmpError,
        ident: int = 0,
        ttl: int = DEFAULT_TTL,
    ) -> "Packet":
        """Convenience constructor for an ICMP error/IPv4 packet.

        ``src`` is the reporting router or middlebox; ``dst`` is the source
        of the quoted (offending) packet.
        """
        ip = IPv4Header(src=src, dst=dst, protocol=PROTO_ICMP, ident=ident, ttl=ttl)
        return cls(ip=ip, icmp=error, payload=error.payload)

    def is_icmp(self) -> bool:
        """Return True when the packet carries an ICMP message."""
        return self.icmp is not None

    def total_length(self) -> int:
        """Return the packet's total length in bytes as it would appear on the wire."""
        return self.wire_length

    def describe(self) -> str:
        """Return a single-line human-readable summary for logs and traces."""
        src = format_address(self.ip.src)
        dst = format_address(self.ip.dst)
        if self.tcp is not None:
            return (
                f"TCP {src}:{self.tcp.src_port} > {dst}:{self.tcp.dst_port} "
                f"[{self.tcp.flags.describe()}] seq={self.tcp.seq} ack={self.tcp.ack} "
                f"ipid={self.ip.ident} len={len(self.payload)}"
            )
        if isinstance(self.icmp, IcmpError):
            return f"ICMP {src} > {dst} {self.icmp.describe()} ipid={self.ip.ident}"
        if self.icmp is not None:
            kind = "echo-request" if self.icmp.is_request() else "echo-reply"
            return (
                f"ICMP {src} > {dst} {kind} id={self.icmp.identifier} "
                f"seq={self.icmp.sequence} ipid={self.ip.ident}"
            )
        return f"IP {src} > {dst} proto={self.ip.protocol} len={len(self.payload)}"
