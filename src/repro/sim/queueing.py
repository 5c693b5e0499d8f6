"""A finite drop-tail FIFO queue in front of an output link.

Used to model congestion-induced loss; it never reorders packets by itself.
"""

from __future__ import annotations

from repro.net.packet import Packet
from repro.sim.link import BITS_PER_BYTE
from repro.sim.path import PathElement


class DropTailQueue(PathElement):
    """Drop-tail FIFO queue drained at a fixed service rate.

    Parameters
    ----------
    service_rate_bps:
        Drain rate in bits per second.
    capacity_packets:
        Maximum number of packets held (waiting or in service); arrivals that
        would exceed it are dropped and counted in :attr:`packets_dropped`.
    """

    def __init__(self, service_rate_bps: float, capacity_packets: int = 100) -> None:
        super().__init__()
        if service_rate_bps <= 0.0:
            raise ValueError(f"service rate must be positive: {service_rate_bps}")
        if capacity_packets < 1:
            raise ValueError(f"capacity must be at least one packet: {capacity_packets}")
        self.service_rate_bps = service_rate_bps
        self.capacity_packets = capacity_packets
        self._busy_until = 0.0
        self._occupancy = 0
        self.packets_dropped = 0
        self.packets_forwarded = 0

    @property
    def occupancy(self) -> int:
        """Number of packets currently queued or in service."""
        return self._occupancy

    def handle_packet(self, packet: Packet) -> None:
        if self._occupancy >= self.capacity_packets:
            self.packets_dropped += 1
            return
        sim = self._sim
        start = max(sim.now, self._busy_until)
        service_time = packet.total_length() * BITS_PER_BYTE / self.service_rate_bps
        departure = start + service_time
        self._busy_until = departure
        self._occupancy += 1
        self.packets_forwarded += 1
        # ``departure >= now``: the departure is one heap entry, no handle.
        sim.schedule_hop_at(departure, self._depart, packet)

    def _depart(self, packet: Packet) -> None:
        self._occupancy -= 1
        self._emit(packet)
