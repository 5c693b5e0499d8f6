"""Endpoint TCP/IP stack models.

The paper's techniques turn "any host exporting a TCP/IP service into a de
facto measurement server" by leveraging specific, observable stack behaviours:
IPID generation, immediate acknowledgment of out-of-order data, delayed
acknowledgment of in-order data, and the response to a second SYN.  This
package models those behaviours — including the deviant implementations the
paper calls out — plus the sting-style probe host used to inject and capture
raw packets.
"""

from repro.host.icmp_responder import IcmpResponder
from repro.host.ipid import (
    ConstantZeroIpid,
    GlobalCounterIpid,
    IpidPolicy,
    IpStack,
    PerDestinationIpid,
    RandomIncrementIpid,
    RandomIpid,
)
from repro.host.machine import RemoteHost
from repro.host.os_profiles import (
    OS_PROFILES,
    IpidScheme,
    SecondSynResponse,
    OsProfile,
    profile_by_name,
)
from repro.host.raw_socket import CapturedPacket, ProbeHost
from repro.host.server import WebServer
from repro.host.tcp_endpoint import TcpConnection, TcpEndpoint

__all__ = [
    "CapturedPacket",
    "ConstantZeroIpid",
    "GlobalCounterIpid",
    "IcmpResponder",
    "IpStack",
    "IpidPolicy",
    "IpidScheme",
    "OS_PROFILES",
    "OsProfile",
    "PerDestinationIpid",
    "ProbeHost",
    "RandomIncrementIpid",
    "RandomIpid",
    "RemoteHost",
    "SecondSynResponse",
    "TcpConnection",
    "TcpEndpoint",
    "WebServer",
    "profile_by_name",
]
