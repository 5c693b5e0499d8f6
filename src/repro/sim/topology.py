"""Topology: wiring the probe host, paths, and remote sites together.

Every experiment in the paper has the same shape — a single probe host
measuring many remote servers, each over its own Internet path.  The
:class:`Topology` mirrors that: one probe, and per remote address a
:class:`~repro.sim.path.DuplexPath` terminating at a site (a single host or a
load-balanced cluster).
"""

from __future__ import annotations

from typing import Protocol

from repro.net.errors import TopologyError
from repro.net.flow import format_address
from repro.net.packet import Packet
from repro.sim.middlebox import Site
from repro.sim.path import DuplexPath, PacketSink
from repro.sim.simulator import Simulator


class ProbeInterface(Protocol):
    """The contract the topology expects from the probe host."""

    address: int

    def deliver(self, packet: Packet) -> None:
        """Accept a packet arriving from the network."""


class Topology:
    """Routes packets between one probe host and any number of remote sites."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._probe: ProbeInterface | None = None
        # Each site's forward and reverse pipeline entries, bound when its
        # path was attached.
        self._forward: dict[int, PacketSink] = {}
        self._reverse: dict[int, PacketSink] = {}
        self.packets_unroutable = 0

    def attach_probe(self, probe: ProbeInterface) -> None:
        """Register the probe host.  Must be called before adding sites."""
        self._probe = probe

    def add_site(self, address: int, site: Site, path: DuplexPath) -> None:
        """Attach a remote site reachable at ``address`` over ``path``.

        The forward pipeline's sink becomes the site's ``deliver`` method and
        the reverse pipeline's sink becomes the probe's ``deliver`` method.
        """
        if self._probe is None:
            raise TopologyError("attach_probe() must be called before add_site()")
        if address in self._forward:
            raise TopologyError(f"duplicate site address: {format_address(address)}")
        self._forward[address], self._reverse[address] = path.attach(
            self._sim, forward_sink=site.deliver, reverse_sink=self._probe.deliver
        )

    def addresses(self) -> tuple[int, ...]:
        """Return all registered remote addresses."""
        return tuple(self._forward)

    def send_from_probe(self, packet: Packet) -> None:
        """Inject a packet from the probe host onto the forward path to its destination."""
        forward = self._forward.get(packet.ip.dst)
        if forward is None:
            self.packets_unroutable += 1
            return
        forward(packet)

    def transmit_for_site(self, address: int) -> PacketSink:
        """Return the transmit callable a site at ``address`` should use for replies.

        It is the reverse pipeline's entry itself, so a reply enters the path
        with no frame in between.
        """
        reverse = self._reverse.get(address)
        if reverse is None:
            raise TopologyError(f"no site at {format_address(address)}")
        return reverse
