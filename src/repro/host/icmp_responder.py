"""ICMP echo responder for the Bennett et al. baseline.

Replies to echo requests with echo replies carrying the same identifier,
sequence number, and payload.  Replies are stamped with IPIDs from the host's
shared IP stack, exactly like TCP traffic, because that sharing is an
observable property of real hosts.

The responder is also the host's sink for ICMP *error* messages (TTL
exceeded, fragmentation needed, source quench): it tallies them per type so
analyses can see what the hostile path reported, mirroring how a real stack
surfaces errors to the socket layer.
"""

from __future__ import annotations

from typing import Callable

from repro.host.ipid import IpStack
from repro.net.icmp import IcmpError
from repro.net.packet import ICMP_ECHO_REPLY, IcmpEcho, Packet

TransmitFn = Callable[[Packet], None]


class IcmpResponder:
    """Answers ICMP echo requests addressed to this host."""

    def __init__(self, stack: IpStack, transmit: TransmitFn, enabled: bool = True) -> None:
        self._stack = stack
        self._transmit = transmit
        self.enabled = enabled
        self.requests_seen = 0
        self.replies_sent = 0
        self.errors_received = 0
        self.errors_by_type: dict[tuple[int, int], int] = {}

    def deliver(self, packet: Packet) -> None:
        """Accept an ICMP packet arriving from the network."""
        if not packet.is_icmp():
            return
        icmp = packet.icmp
        assert icmp is not None
        if packet.ip.dst != self._stack.address:
            return
        if isinstance(icmp, IcmpError):
            self.errors_received += 1
            key = (icmp.icmp_type, icmp.code)
            self.errors_by_type[key] = self.errors_by_type.get(key, 0) + 1
            return
        if not icmp.is_request():
            return
        self.requests_seen += 1
        if not self.enabled:
            return
        reply = IcmpEcho(
            icmp_type=ICMP_ECHO_REPLY,
            identifier=icmp.identifier,
            sequence=icmp.sequence,
            payload=icmp.payload,
        )
        response = Packet.icmp_packet(
            src=self._stack.address,
            dst=packet.ip.src,
            icmp=reply,
            ident=self._stack.next_ipid(packet.ip.src),
        )
        self.replies_sent += 1
        self._transmit(response)
