"""Discrete-event network simulation substrate.

The paper's measurements ran against the real Internet; this package provides
the stand-in: a deterministic, seedable discrete-event simulator with links,
queues, reordering elements (including a faithful model of the modified
dummynet used for controlled validation and a parallel-queue striping model
that reproduces the gap-dependent reordering of Figure 7), middleboxes, and
trace capture for ground truth.
"""

from repro.sim.build import (
    DiurnalJitterSpec,
    DuplexSpec,
    EcnBleachSpec,
    EcnMarkSpec,
    ElementSpec,
    GilbertLossSpec,
    IcmpPolicerSpec,
    JitterSpec,
    LinkSpec,
    LossSpec,
    NatSpec,
    PmtudBlackHoleSpec,
    RouteFlapSpec,
    StripeSpec,
    SwapSpec,
    SynFirewallSpec,
    TraceSpec,
    build_duplex_pairs,
    build_elements,
)
from repro.sim.events import Event, EventQueue
from repro.sim.link import Link
from repro.sim.middlebox import (
    EcnBleacher,
    EcnMarker,
    IcmpRateLimiter,
    LoadBalancer,
    NatForward,
    NatReverse,
    NatTable,
    PmtudBlackHole,
    SynFirewall,
)
from repro.sim.path import attach_chain
from repro.sim.queueing import DropTailQueue
from repro.sim.random import SeededRandom
from repro.sim.reorder import AdjacentSwapReorderer, DelayJitterReorderer, LossElement
from repro.sim.simulator import Simulator, Waiter
from repro.sim.striping import StripedPathModel
from repro.sim.timevary import (
    DiurnalCongestionElement,
    GilbertElliottLossElement,
    RouteFlapReorderer,
)
from repro.sim.trace import TraceCapture, TraceRecord

__all__ = [
    "AdjacentSwapReorderer",
    "DelayJitterReorderer",
    "DiurnalCongestionElement",
    "DiurnalJitterSpec",
    "DropTailQueue",
    "DuplexSpec",
    "EcnBleachSpec",
    "EcnBleacher",
    "EcnMarkSpec",
    "EcnMarker",
    "ElementSpec",
    "Event",
    "EventQueue",
    "GilbertElliottLossElement",
    "GilbertLossSpec",
    "IcmpPolicerSpec",
    "IcmpRateLimiter",
    "JitterSpec",
    "Link",
    "LinkSpec",
    "LoadBalancer",
    "LossElement",
    "LossSpec",
    "NatForward",
    "NatReverse",
    "NatSpec",
    "NatTable",
    "PmtudBlackHole",
    "PmtudBlackHoleSpec",
    "RouteFlapReorderer",
    "RouteFlapSpec",
    "SeededRandom",
    "Simulator",
    "StripeSpec",
    "StripedPathModel",
    "SwapSpec",
    "SynFirewall",
    "SynFirewallSpec",
    "TraceCapture",
    "TraceRecord",
    "TraceSpec",
    "Waiter",
    "attach_chain",
    "build_duplex_pairs",
    "build_elements",
]
