"""A complete simulated remote host: IP stack + TCP endpoint + ICMP responder.

:class:`RemoteHost` is the unit a testbed deploys at a remote address and the
unit a :class:`~repro.sim.middlebox.LoadBalancer` multiplexes.  All
transport entities on the host share one :class:`~repro.host.ipid.IpStack`,
so the IPID stream observed by a probe reflects every packet the host sends —
the property the dual-connection test depends on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.host.icmp_responder import IcmpResponder
from repro.host.ipid import IpStack
from repro.host.os_profiles import OsProfile
from repro.host.server import WebServer
from repro.host.tcp_endpoint import TcpEndpoint
from repro.net.packet import Packet
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator

TransmitFn = Callable[[Packet], None]


class RemoteHost:
    """One simulated server machine.

    Parameters
    ----------
    sim:
        The simulator.
    address:
        The host's IPv4 address as a 32-bit integer.
    profile:
        OS behaviour profile (IPID policy, delayed-ACK behaviour, ...).
    rng:
        Seeded randomness for this host (ISNs, random IPIDs).
    transmit:
        Sends the host's outbound packets: the entry of its site's reverse path.
    listen_ports:
        TCP ports accepting connections (port 80 by default).
    web_server:
        Optional application serving data for the TCP data-transfer test.
    icmp_enabled:
        Whether the host answers ICMP echo requests.
    """

    def __init__(
        self,
        sim: Simulator,
        address: int,
        profile: OsProfile,
        rng: SeededRandom,
        transmit: TransmitFn,
        listen_ports: tuple[int, ...] = (80,),
        web_server: Optional[WebServer] = None,
        icmp_enabled: bool = True,
    ) -> None:
        self.address = address
        self.profile = profile
        self.stack = IpStack(address=address, ipid_policy=profile.build_ipid_policy(rng))
        self.tcp = TcpEndpoint(
            sim=sim,
            stack=self.stack,
            profile=profile,
            rng=rng.fork("tcp"),
            transmit=transmit,
            listen_ports=listen_ports,
            on_data=None if web_server is None else web_server.on_data,
        )
        self.icmp = IcmpResponder(stack=self.stack, transmit=transmit, enabled=icmp_enabled)
        self.web_server = web_server
        self.packets_delivered = 0

    def deliver(self, packet: Packet) -> None:
        """Accept a packet arriving from the network and dispatch by protocol."""
        self.packets_delivered += 1
        if packet.tcp is not None:
            self.tcp.deliver(packet)
        elif packet.icmp is not None:
            self.icmp.deliver(packet)
