"""Data-driven path construction: element specs in, path elements out.

Paths used to be assembled by hand-written ``if`` chains in the testbed
layer; every new kind of path condition meant editing that builder.  This
module inverts the dependency: a path is *described* as an ordered list of
small, frozen :class:`ElementSpec` dataclasses, and :func:`build_elements`
turns any such description into the elements of a chain for
:func:`~repro.sim.path.attach_chain`.

Specs are plain data — hashable, comparable, and encoded by their field
tables (:mod:`repro.core.schema`) — so host specs cross process and socket
boundaries and live in campaign stores, and tests can assert on them
directly.  Each stochastic spec's ``stream`` field names the label under
which its element's random stream is forked from the path's
:class:`~repro.sim.random.SeededRandom`; deterministic specs (links, trace
capture) have no such field and consume no randomness at all, so adding or
removing them never perturbs neighbouring streams.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from functools import cache
from typing import Optional, Sequence

from repro.sim.link import Link
from repro.sim.middlebox import (
    EcnBleacher,
    EcnMarker,
    IcmpRateLimiter,
    NatForward,
    NatReverse,
    NatTable,
    PmtudBlackHole,
    SynFirewall,
)
from repro.sim.path import PathElement
from repro.sim.random import SeededRandom
from repro.sim.reorder import AdjacentSwapReorderer, DelayJitterReorderer, LossElement
from repro.sim.striping import StripedPathModel
from repro.sim.timevary import (
    DiurnalCongestionElement,
    GilbertElliottLossElement,
    RouteFlapReorderer,
)
from repro.sim.trace import TraceCapture


@dataclass(frozen=True, slots=True)
class ElementSpec(ABC):
    """A declarative description of one path element.

    Each spec names its element class once (``element = Link``), and its
    fields are that class's keyword arguments, except ``stream``.  ``label``
    names the random stream the element forks from the path rng and takes as
    ``rng``: the spec's ``stream`` field, or ``None`` for a deterministic
    element (no stream is consumed).
    """

    @property
    @abstractmethod
    def element(self) -> type[PathElement]:
        """The class this spec builds."""

    @property
    def label(self) -> Optional[str]:
        return getattr(self, "stream", None)

    def build(self, rng: Optional[SeededRandom]) -> PathElement:
        """Instantiate the element (``rng`` is the forked stream, or None)."""
        arguments = {name: getattr(self, name) for name in _arguments(type(self))}
        if rng is not None:
            arguments["rng"] = rng
        return self.element(**arguments)


@cache
def _arguments(spec_type: type[ElementSpec]) -> tuple[str, ...]:
    """The element's keyword arguments a spec class carries: its fields but ``stream``."""
    return tuple(field.name for field in fields(spec_type) if field.name != "stream")


@dataclass(frozen=True, slots=True)
class LinkSpec(ElementSpec):
    """A FIFO link with serialization and propagation delay."""

    element = Link

    bandwidth_bps: Optional[float] = None
    propagation_delay: float = 0.0


@dataclass(frozen=True, slots=True)
class TraceSpec(ElementSpec):
    """A transparent capture point (the simulated tcpdump)."""

    element = TraceCapture

    point: str = "capture"


@dataclass(frozen=True, slots=True)
class LossSpec(ElementSpec):
    """Independent per-packet loss with a fixed probability."""

    element = LossElement

    probability: float = 0.0
    stream: str = "loss"


@dataclass(frozen=True, slots=True)
class SwapSpec(ElementSpec):
    """Adjacent-swap reordering (the paper's modified-dummynet model)."""

    element = AdjacentSwapReorderer

    probability: float = 0.0
    stream: str = "swap"
    max_hold_time: float = 0.03


@dataclass(frozen=True, slots=True)
class JitterSpec(ElementSpec):
    """Independent exponential extra delay per packet."""

    element = DelayJitterReorderer

    jitter_mean: float = 0.0
    base_delay: float = 0.0
    stream: str = "jitter"


@dataclass(frozen=True, slots=True)
class StripeSpec(ElementSpec):
    """Per-packet striping over parallel links (the §IV-C reordering source)."""

    element = StripedPathModel

    num_links: int = 2
    link_rate_bps: float = 1e9
    queue_imbalance_scale: float = 30e-6
    switch_probability: float = 0.5
    imbalance_probability: float = 0.6
    stream: str = "stripe"


@dataclass(frozen=True, slots=True)
class GilbertLossSpec(ElementSpec):
    """Bursty (two-state Markov) loss episodes."""

    element = GilbertElliottLossElement

    good_loss: float = 0.0
    bad_loss: float = 0.3
    p_good_to_bad: float = 0.005
    p_bad_to_good: float = 0.2
    stream: str = "gilbert-loss"


@dataclass(frozen=True, slots=True)
class RouteFlapSpec(ElementSpec):
    """Reordering that spikes during randomly timed route-flap episodes."""

    element = RouteFlapReorderer

    base_swap_probability: float = 0.0
    flap_swap_probability: float = 0.35
    mean_quiet_interval: float = 30.0
    mean_flap_duration: float = 3.0
    max_hold_time: float = 0.03
    stream: str = "route-flap"


@dataclass(frozen=True, slots=True)
class DiurnalJitterSpec(ElementSpec):
    """Sinusoidally modulated congestion jitter (simulated time of day)."""

    element = DiurnalCongestionElement

    peak_jitter: float = 0.002
    period: float = 86_400.0
    phase: float = 0.0
    base_delay: float = 0.0
    stream: str = "diurnal"


@dataclass(frozen=True, slots=True)
class SynFirewallSpec(ElementSpec):
    """A stateful SYN-rate-limiting firewall (deterministic; forward path)."""

    element = SynFirewall

    rate_per_second: float = 5.0
    burst: int = 1


@dataclass(frozen=True, slots=True)
class IcmpPolicerSpec(ElementSpec):
    """A token-bucket ICMP policer (deterministic)."""

    element = IcmpRateLimiter

    rate_per_second: float = 1.0
    burst: int = 1


@dataclass(frozen=True, slots=True)
class PmtudBlackHoleSpec(ElementSpec):
    """A silent small-MTU hop: too-big DF packets vanish, no errors escape."""

    element = PmtudBlackHole

    mtu: int = 256


@dataclass(frozen=True, slots=True)
class EcnMarkSpec(ElementSpec):
    """Stamp an ECN codepoint on every packet (deterministic)."""

    element = EcnMarker

    codepoint: int = 0b10


@dataclass(frozen=True, slots=True)
class EcnBleachSpec(ElementSpec):
    """Clear the ECN codepoint on every packet (deterministic)."""

    element = EcnBleacher


@dataclass(frozen=True, slots=True)
class DuplexSpec(ABC):
    """A declarative middlebox whose two directions share mutable state.

    Unidirectional :class:`ElementSpec` covers most path behaviours, but a
    NAT is meaningless one-way: the reverse translation must consult the
    table the forward direction populates.  A duplex spec therefore builds a
    *pair* of elements at once.  ``label`` plays the same role as on
    :class:`ElementSpec` (None = deterministic, consumes no random stream).
    """

    @property
    def label(self) -> Optional[str]:
        return None

    @abstractmethod
    def build_pair(
        self, rng: Optional[SeededRandom]
    ) -> tuple[PathElement, PathElement]:
        """Instantiate the (forward, reverse) elements sharing their state."""


@dataclass(frozen=True, slots=True)
class NatSpec(DuplexSpec):
    """A port-rewriting NAT with idle-timeout mapping expiry."""

    timeout: float = 0.15
    port_base: int = 2000

    def build_pair(
        self, rng: Optional[SeededRandom]
    ) -> tuple[PathElement, PathElement]:
        table = NatTable(timeout=self.timeout, port_base=self.port_base)
        return NatForward(table), NatReverse(table)


def build_duplex_pairs(
    specs: Sequence[DuplexSpec], rng: SeededRandom
) -> list[tuple[PathElement, PathElement]]:
    """Instantiate duplex middlebox specs in order, forking streams as labelled."""
    return [spec.build_pair(_stream(spec, rng)) for spec in specs]


def build_elements(
    specs: Sequence[ElementSpec], rng: SeededRandom
) -> list[PathElement]:
    """Instantiate ``specs`` in order, forking one stream per stochastic spec.

    Streams are forked from ``rng`` in spec order under each spec's
    ``label``, so an element's randomness depends only on the sequence of
    *stochastic* specs before it — deterministic specs are free to come and
    go without re-seeding anything.
    """
    return [spec.build(_stream(spec, rng)) for spec in specs]


def _stream(spec: ElementSpec | DuplexSpec, rng: SeededRandom) -> Optional[SeededRandom]:
    return rng.fork(spec.label) if spec.label is not None else None
