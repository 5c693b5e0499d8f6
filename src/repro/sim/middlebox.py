"""Middleboxes: the hostile internet between the probe and its targets.

The paper identifies transparent load balancers as the failure mode of the
dual-connection test (each connection may land on a different backend with
its own IPID counter) and ICMP filtering / rate limiting as a weakness of
ping-based methodologies such as Bennett et al.'s.  This module models those
plus the rest of the middlebox taxonomy the single-point methodology has to
survive:

* :class:`LoadBalancer` — per-flow backend hashing (now ICMP-error aware);
* :class:`IcmpRateLimiter` — ICMP policing;
* :class:`NatForward` / :class:`NatReverse` — a port-rewriting NAT pair
  sharing a :class:`NatTable` with idle-timeout expiry;
* :class:`SynFirewall` — a stateful firewall that rate limits inbound SYNs;
* :class:`PmtudBlackHole` — drops too-big DF packets, optionally emitting
  (or, true to its name, suppressing) fragmentation-needed errors;
* :class:`EcnMarker` / :class:`EcnBleacher` — ECN codepoint stamping and the
  bleaching middlebox that erases it.

The stateful elements keep all their timing relative to packet arrivals
(token buckets, idle timeouts), never to absolute simulated time, so shard
layout cannot change their behaviour for a given per-host packet schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from repro.net.icmp import IcmpError
from repro.net.packet import PROTO_ICMP, IPv4Header, Packet, TcpFlags, TcpHeader
from repro.sim.path import PathElement

_SYN = TcpFlags.SYN.value
_SYN_OR_ACK = int(TcpFlags.SYN | TcpFlags.ACK)


class Site(Protocol):
    """Anything that can terminate traffic for an address: a host or a cluster."""

    def deliver(self, packet: Packet) -> None:
        """Accept a packet arriving from the network."""


class LoadBalancer:
    """A transparent per-flow load balancer in front of several backend hosts.

    Flows are assigned to backends by hashing the four-tuple with its lower
    ``(address, port)`` endpoint first (the common "hash on the four-tuple"
    strategy the paper describes, made direction-agnostic), so
    every packet of a TCP connection — including both SYNs of the SYN test —
    reaches the same backend, while two distinct connections will frequently
    land on different backends.
    """

    def __init__(self, backends: Sequence[Site], hash_salt: int = 0) -> None:
        if not backends:
            raise ValueError("load balancer requires at least one backend")
        self._backends = list(backends)
        self._hash_salt = hash_salt
        self.packets_forwarded = 0
        self.non_tcp_packets = 0
        self.icmp_errors_routed = 0

    @property
    def backends(self) -> tuple[Site, ...]:
        """The backend sites behind this balancer."""
        return tuple(self._backends)

    def _backend_for(self, src_addr: int, src_port: int, dst_addr: int, dst_port: int) -> int:
        """Hash a flow's endpoints, lower ``(address, port)`` first: both directions alike."""
        if (src_addr, src_port) > (dst_addr, dst_port):
            src_addr, src_port, dst_addr, dst_port = dst_addr, dst_port, src_addr, src_port
        salted = (src_addr, src_port, dst_addr, dst_port, self._hash_salt)
        return hash(salted) % len(self._backends)

    def deliver(self, packet: Packet) -> None:
        """Forward a packet to the backend owning its flow.

        ICMP errors quote the packet that triggered them, and the quote names
        the flow: a balancer that ignores it strands TTL-exceeded and
        fragmentation-needed errors on backend 0 while the affected
        connection lives elsewhere (breaking PMTUD behind the VIP).  Quoted
        flows are therefore hashed exactly like the TCP packets they quote —
        the endpoint ordering guarantees the error lands on the
        backend serving the original connection.
        """
        self.packets_forwarded += 1
        tcp = packet.tcp
        if tcp is not None:
            index = self._backend_for(packet.ip.src, tcp.src_port, packet.ip.dst, tcp.dst_port)
        else:
            quoted_index = self._backend_for_icmp_error(packet)
            if quoted_index is not None:
                self.icmp_errors_routed += 1
                index = quoted_index
            else:
                # Flowless non-TCP traffic (e.g. ICMP echo) goes to the
                # first backend, which is what a VIP-level responder would do.
                self.non_tcp_packets += 1
                index = 0
        self._backends[index].deliver(packet)

    def _backend_for_icmp_error(self, packet: Packet) -> Optional[int]:
        """Return the backend owning the flow an ICMP error quotes, if any."""
        icmp = packet.icmp
        if not isinstance(icmp, IcmpError):
            return None
        flow = icmp.quoted_flow()
        if flow is None or flow.src_port is None or flow.dst_port is None:
            return None
        return self._backend_for(flow.src, flow.src_port, flow.dst, flow.dst_port)


class IcmpRateLimiter(PathElement):
    """Token-bucket rate limiter applied to ICMP packets only.

    TCP traffic passes untouched; ICMP packets beyond the sustained rate are
    silently dropped, which is how many operators deploy ICMP limiting and
    why ping-based reordering measurements can silently lose samples.
    """

    def __init__(
        self,
        rate_per_second: float,
        burst: int = 5,
    ) -> None:
        super().__init__()
        if rate_per_second <= 0.0:
            raise ValueError(f"rate must be positive: {rate_per_second}")
        if burst < 1:
            raise ValueError(f"burst must be at least one packet: {burst}")
        self.rate_per_second = rate_per_second
        self.burst = burst
        self._tokens = float(burst)
        self._last_refill = 0.0
        self.icmp_dropped = 0
        self.icmp_forwarded = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate_per_second)
        self._last_refill = now

    def handle_packet(self, packet: Packet) -> None:
        if packet.ip.protocol != PROTO_ICMP:
            self._emit(packet)
            return
        self._refill(self._sim.now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.icmp_forwarded += 1
            self._emit(packet)
        else:
            self.icmp_dropped += 1


@dataclass(slots=True)
class _NatMapping:
    """One live translation: internal (addr, port) <-> external port."""

    internal: tuple[int, int]
    external_port: int
    last_used: float


class NatTable:
    """Shared translation state for a :class:`NatForward`/:class:`NatReverse` pair.

    Mappings are keyed by the internal (address, source port) and expire when
    idle longer than ``timeout``.  Refresh is *conservative*: only outbound
    (forward) traffic extends a mapping's life, the way many consumer NATs
    behave — which is exactly what strands a connection whose next packet
    happens to come from the far side after a long silence.

    External ports are allocated from a monotonic counter starting at
    ``port_base`` so allocation order (and therefore behaviour) is a pure
    function of the packet sequence the NAT observes.
    """

    def __init__(self, timeout: float, port_base: int = 2000) -> None:
        if timeout <= 0.0:
            raise ValueError(f"NAT timeout must be positive: {timeout}")
        if not 1 <= port_base <= 0xFFFF:
            raise ValueError(f"port base out of range: {port_base}")
        self.timeout = timeout
        self._port_base = port_base
        self._next_port = port_base
        self._forward: dict[tuple[int, int], _NatMapping] = {}
        self._reverse: dict[int, _NatMapping] = {}
        self.mappings_created = 0
        self.mappings_expired = 0

    def _expire(self, mapping: _NatMapping) -> None:
        del self._forward[mapping.internal]
        del self._reverse[mapping.external_port]
        self.mappings_expired += 1

    def _allocate(self, internal: tuple[int, int], now: float) -> _NatMapping:
        while True:
            port = self._next_port
            self._next_port += 1
            if self._next_port > 0xFFFF:
                self._next_port = self._port_base
            if port not in self._reverse:
                break
        mapping = _NatMapping(internal=internal, external_port=port, last_used=now)
        self._forward[internal] = mapping
        self._reverse[port] = mapping
        self.mappings_created += 1
        return mapping

    def translate_forward(self, addr: int, port: int, now: float) -> int:
        """Map an outbound (addr, port); allocates or refreshes as needed."""
        key = (addr, port)
        mapping = self._forward.get(key)
        if mapping is not None and now - mapping.last_used > self.timeout:
            self._expire(mapping)
            mapping = None
        if mapping is None:
            mapping = self._allocate(key, now)
        mapping.last_used = now
        return mapping.external_port

    def translate_reverse(self, external_port: int, now: float) -> Optional[tuple[int, int]]:
        """Map an inbound external port back to (addr, port), or None if unknown/expired."""
        mapping = self._reverse.get(external_port)
        if mapping is None:
            return None
        if now - mapping.last_used > self.timeout:
            self._expire(mapping)
            return None
        return mapping.internal


class NatForward(PathElement):
    """The outbound half of a NAT: rewrites TCP source ports via the table."""

    def __init__(self, table: NatTable) -> None:
        super().__init__()
        self.table = table
        self.rewritten = 0

    def handle_packet(self, packet: Packet) -> None:
        tcp = packet.tcp
        if tcp is None:
            self._emit(packet)
            return
        external = self.table.translate_forward(packet.ip.src, tcp.src_port, self._sim.now)
        if external != tcp.src_port:
            # The header is built straight through its validating ``__new__``
            # (``src_port`` is its first field); the forward keeps the uid.
            packet = Packet(packet.ip, TcpHeader(external, *tcp[1:]), None, packet.payload, packet.uid)
            self.rewritten += 1
        self._emit(packet)


class NatReverse(PathElement):
    """The inbound half of a NAT: restores TCP destination ports, or drops.

    A reply whose destination port has no live mapping — the mapping timed
    out, or never existed — is silently discarded, exactly the failure mode
    that makes long-idle connections die behind consumer NATs.
    """

    def __init__(self, table: NatTable) -> None:
        super().__init__()
        self.table = table
        self.restored = 0
        self.unmapped_dropped = 0

    def handle_packet(self, packet: Packet) -> None:
        tcp = packet.tcp
        if tcp is None:
            self._emit(packet)
            return
        internal = self.table.translate_reverse(tcp.dst_port, self._sim.now)
        if internal is None:
            self.unmapped_dropped += 1
            return
        _addr, port = internal
        if port != tcp.dst_port:
            header = TcpHeader(tcp.src_port, port, *tcp[2:])
            packet = Packet(packet.ip, header, None, packet.payload, packet.uid)
            self.restored += 1
        self._emit(packet)


class SynFirewall(PathElement):
    """A stateful firewall that rate limits inbound connection attempts.

    Pure SYNs (no ACK) spend from a token bucket; a SYN that finds the bucket
    empty is eaten silently and its flow is never admitted.  Non-SYN segments
    pass only for flows whose SYN was admitted — out-of-state traffic is
    dropped, as a stateful firewall does.  Non-TCP traffic passes untouched.

    With ``burst=1`` this breaks exactly the probes that need two quick
    connection attempts (the SYN test's paired SYNs, the dual-connection
    test's second handshake) while leaving single-connection probing intact.
    """

    def __init__(self, rate_per_second: float, burst: int = 1) -> None:
        super().__init__()
        if rate_per_second <= 0.0:
            raise ValueError(f"rate must be positive: {rate_per_second}")
        if burst < 1:
            raise ValueError(f"burst must be at least one SYN: {burst}")
        self.rate_per_second = rate_per_second
        self.burst = burst
        self._tokens = float(burst)
        self._last_refill = 0.0
        self._allowed: set[tuple[int, int, int, int]] = set()
        """Admitted flows, keyed by the four-tuple with its lower ``(address, port)``
        endpoint first, so both directions of a flow share one key."""
        self.syn_passed = 0
        self.syn_dropped = 0
        self.out_of_state_dropped = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate_per_second)
        self._last_refill = now

    def handle_packet(self, packet: Packet) -> None:
        tcp = packet.tcp
        if tcp is None:
            self._emit(packet)
            return
        source, destination = (packet.ip.src, tcp.src_port), (packet.ip.dst, tcp.dst_port)
        key = source + destination if source <= destination else destination + source
        if int.__and__(tcp.flags, _SYN_OR_ACK) == _SYN:
            self._refill(self._sim.now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self._allowed.add(key)
                self.syn_passed += 1
                self._emit(packet)
            else:
                self.syn_dropped += 1
            return
        if key in self._allowed:
            self._emit(packet)
        else:
            self.out_of_state_dropped += 1


class PmtudBlackHole(PathElement):
    """A hop whose MTU is smaller than the path pretends, with errors filtered.

    Packets larger than ``mtu`` with DF set are dropped.  A well-behaved
    router would answer with ICMP fragmentation-needed (RFC 1191); pass an
    ``error_sink`` to get that behaviour.  Left at None, the element is the
    classic PMTUD black hole — the error is generated nowhere or filtered,
    and the sender's big segments vanish without a diagnosis.
    """

    def __init__(
        self,
        mtu: int,
        router_address: int = 0,
        error_sink: Optional[Callable[[Packet], None]] = None,
    ) -> None:
        super().__init__()
        if mtu < 68:
            raise ValueError(f"MTU below the IPv4 minimum of 68: {mtu}")
        self.mtu = mtu
        self.router_address = router_address
        self.error_sink = error_sink
        self.black_holed = 0
        self.errors_sent = 0

    def handle_packet(self, packet: Packet) -> None:
        if packet.total_length() > self.mtu and packet.ip.dont_fragment:
            self.black_holed += 1
            if self.error_sink is not None:
                error = IcmpError.frag_needed(packet, next_hop_mtu=self.mtu)
                self.error_sink(
                    Packet.icmp_error_packet(self.router_address, packet.ip.src, error)
                )
                self.errors_sent += 1
            return
        self._emit(packet)


ECN_MASK = 0b11
ECN_ECT0 = 0b10
ECN_CE = 0b11


class EcnMarker(PathElement):
    """Stamps an ECN codepoint into the low two TOS bits of every packet."""

    def __init__(self, codepoint: int = ECN_ECT0) -> None:
        super().__init__()
        if not 0 <= codepoint <= 3:
            raise ValueError(f"ECN codepoint out of range: {codepoint}")
        self.codepoint = codepoint
        self.marked = 0

    def handle_packet(self, packet: Packet) -> None:
        ip = packet.ip
        if (ip.tos & ECN_MASK) != self.codepoint:
            # The header is built straight through its validating ``__new__``
            # (``tos`` is its last field); the rewrite keeps the uid.
            header = IPv4Header(*ip[:-1], (ip.tos & ~ECN_MASK) | self.codepoint)
            packet = Packet(header, packet.tcp, packet.icmp, packet.payload, packet.uid)
            self.marked += 1
        self._emit(packet)


class EcnBleacher(PathElement):
    """Clears the ECN codepoint — the bleaching middlebox that defeats ECN."""

    def __init__(self) -> None:
        super().__init__()
        self.bleached = 0

    def handle_packet(self, packet: Packet) -> None:
        ip = packet.ip
        if ip.tos & ECN_MASK:
            header = IPv4Header(*ip[:-1], ip.tos & ~ECN_MASK)
            packet = Packet(header, packet.tcp, packet.icmp, packet.payload, packet.uid)
            self.bleached += 1
        self._emit(packet)
