"""A point-to-point link with bandwidth (serialization delay) and propagation delay.

Serialization delay is the mechanism behind the paper's explanation of why
the TCP data-transfer test under-reports reordering: back-to-back 1500-byte
packets leave the sender's access link further apart in time than 40-byte
probe packets, so downstream queue imbalance is less likely to invert them.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.sim.path import PathElement

BITS_PER_BYTE = 8


class Link(PathElement):
    """FIFO link: packets are transmitted in arrival order, never reordered.

    Parameters
    ----------
    bandwidth_bps:
        Link capacity in bits per second.  ``None`` models an infinitely fast
        link (zero serialization delay).
    propagation_delay:
        One-way propagation delay in seconds.
    """

    def __init__(self, bandwidth_bps: float | None = None, propagation_delay: float = 0.0) -> None:
        super().__init__()
        if bandwidth_bps is not None and bandwidth_bps <= 0.0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_bps}")
        if propagation_delay < 0.0:
            raise ValueError(f"propagation delay cannot be negative: {propagation_delay}")
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay = propagation_delay
        self._busy_until = 0.0
        self.packets_carried = 0
        self.bytes_carried = 0

    def handle_packet(self, packet: Packet) -> None:
        sim = self._sim
        now = sim.now
        start = self._busy_until
        if now > start:
            start = now
        length = packet.wire_length
        if self.bandwidth_bps is None:
            departure = start
        else:
            departure = start + length * BITS_PER_BYTE / self.bandwidth_bps
        self._busy_until = departure
        self.packets_carried += 1
        self.bytes_carried += length
        when = departure + self.propagation_delay
        if when <= now:
            self._emit(packet)
        else:
            sim.schedule_hop_at(when, self._emit, packet)
