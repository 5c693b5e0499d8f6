"""Topology: wiring the probe host, paths, and remote sites together.

Every experiment in the paper has the same shape — a single probe host
measuring many remote servers, each over its own Internet path.  The
:class:`Topology` mirrors that: one probe, and per remote address a
:class:`~repro.sim.path.DuplexPath` terminating at a site (a single host or a
load-balanced cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(slots=True)
class _Destination:
    site: Site
    path: DuplexPath
    forward: PacketSink
    """The forward pipeline's entry, bound when the path was attached."""
    reverse: PacketSink
    """The reverse pipeline's entry, bound when the path was attached."""


class Topology:
    """Routes packets between one probe host and any number of remote sites."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._probe: ProbeInterface | None = None
        self._destinations: dict[int, _Destination] = {}
        self.packets_routed = 0
        self.packets_unroutable = 0

    @property
    def sim(self) -> Simulator:
        """The simulator this topology is built on."""
        return self._sim

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
        if address in self._destinations:
            raise TopologyError(f"duplicate site address: {format_address(address)}")
        forward, reverse = path.attach(
            self._sim, forward_sink=site.deliver, reverse_sink=self._probe.deliver
        )
        self._destinations[address] = _Destination(site, path, forward, reverse)

    def addresses(self) -> tuple[int, ...]:
        """Return all registered remote addresses."""
        return tuple(self._destinations)

    def site_for(self, address: int) -> Site:
        """Return the site registered at ``address``."""
        try:
            return self._destinations[address].site
        except KeyError:
            raise TopologyError(f"no site at {format_address(address)}") from None

    def path_for(self, address: int) -> DuplexPath:
        """Return the duplex path serving ``address``."""
        try:
            return self._destinations[address].path
        except KeyError:
            raise TopologyError(f"no site at {format_address(address)}") from None

    def send_from_probe(self, packet: Packet) -> None:
        """Inject a packet from the probe host onto the forward path to its destination."""
        destination = self._destinations.get(packet.ip.dst)
        if destination is None:
            self.packets_unroutable += 1
            return
        self.packets_routed += 1
        destination.forward(packet)

    def transmit_for_site(self, address: int):
        """Return the transmit callable a site at ``address`` should use for replies."""
        destination = self._destinations.get(address)
        if destination is None:
            raise TopologyError(f"no site at {format_address(address)}")
        reverse = destination.reverse

        def _transmit(packet: Packet) -> None:
            self.packets_routed += 1
            reverse(packet)

        return _transmit
