"""Declarative construction of simulated testbeds.

A testbed is one probe host plus any number of remote sites, each reachable
over its own pair of element chains, one per direction.  Paths are not
assembled by hand here: a site's :class:`PathSpec` is *compiled* to an
ordered list of :class:`~repro.sim.build.ElementSpec` descriptions by
:func:`path_element_specs`, the data-driven
:func:`~repro.sim.build.build_elements` turns the description into elements,
and :func:`~repro.sim.path.attach_chain` wires them.  Scenario-defined
conditions (bursty loss, route flaps, diurnal congestion — any
:class:`~repro.sim.build.ElementSpec`) ride along in
``PathSpec.forward_conditions`` / ``reverse_conditions`` without this module
knowing their concrete types.  Trace captures are installed at the server
side of the forward path and at the server egress of the reverse path so
controlled-validation experiments can extract ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.host.machine import RemoteHost
from repro.host.os_profiles import FREEBSD_44, OsProfile
from repro.host.raw_socket import ProbeHost
from repro.host.server import build_server
from repro.net.errors import TopologyError
from repro.net.flow import format_address, parse_address
from repro.net.packet import Packet
from repro.sim.build import (
    DuplexSpec,
    ElementSpec,
    JitterSpec,
    LinkSpec,
    LossSpec,
    StripeSpec,
    SwapSpec,
    TraceSpec,
    build_duplex_pairs,
    build_elements,
)
from repro.sim.middlebox import LoadBalancer
from repro.sim.path import PacketSink, attach_chain
from repro.sim.random import SeededRandom
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceCapture

PROBE_ADDRESS = parse_address("10.0.0.1")


@dataclass(frozen=True, slots=True)
class StripingSpec:
    """Parameters of a per-packet striping stage on a path."""

    num_links: int = 2
    link_rate_bps: float = 1e9
    queue_imbalance_scale: float = 30e-6
    switch_probability: float = 0.5
    imbalance_probability: float = 0.6


@dataclass(frozen=True, slots=True)
class PathSpec:
    """The one-way behaviours of a probe-to-host path, per direction."""

    forward_swap_probability: float = 0.0
    reverse_swap_probability: float = 0.0
    forward_loss: float = 0.0
    reverse_loss: float = 0.0
    propagation_delay: float = 0.005
    access_bandwidth_bps: Optional[float] = 100e6
    forward_striping: Optional[StripingSpec] = None
    reverse_striping: Optional[StripingSpec] = None
    forward_jitter_mean: float = 0.0
    reverse_jitter_mean: float = 0.0
    forward_conditions: tuple[ElementSpec, ...] = ()
    """Extra declarative path elements appended to the forward path
    (upstream of the arrival trace).  The scenario layer uses these slots for
    time-varying conditions the scalar fields above cannot express."""

    reverse_conditions: tuple[ElementSpec, ...] = ()
    """Extra declarative elements for the reverse path (after the egress
    trace, before the access link)."""

    middleboxes: tuple[DuplexSpec, ...] = ()
    """Duplex middleboxes (e.g. a NAT) installed at the probe edge of the
    path: each spec's forward element is the first hop traffic leaving the
    probe crosses, and its reverse element is the last hop before delivery
    back to the probe.  When several are listed, the first spec sits
    innermost (closest to the wide-area path)."""


@dataclass(frozen=True, slots=True)
class HostSpec:
    """A remote site: its stack behaviour, applications, middleboxes, and path."""

    name: str
    address: int
    profile: OsProfile = FREEBSD_44
    path: PathSpec = field(default_factory=PathSpec)
    web_object_size: Optional[int] = 16 * 1024
    icmp_enabled: bool = True
    load_balancer_backends: int = 0
    """0 means no load balancer; N >= 2 places the site behind N backends."""


@dataclass(slots=True)
class SiteHandle:
    """Everything the experiment harness may need about one deployed site."""

    spec: HostSpec
    hosts: list[RemoteHost]
    load_balancer: Optional[LoadBalancer]
    forward_trace: TraceCapture
    reverse_trace: TraceCapture


class Testbed:
    """A fully wired simulation environment ready for measurements."""

    __test__ = False  # tells pytest this is no test class

    def __init__(self, seed: int = 1, stable_site_seeds: bool = False) -> None:
        self.sim = Simulator()
        self.rng = SeededRandom(seed)
        self.stable_site_seeds = stable_site_seeds
        """When True, each site's random stream is derived from (seed, site
        name) alone rather than from insertion order, so a testbed containing
        any subset of a spec list gives each site the same stream as the full
        build.  The sharded campaign runner relies on this to keep per-shard
        rebuilds byte-for-byte reproducible."""
        self.probe = ProbeHost(self.sim, PROBE_ADDRESS, self._send_from_probe)
        self.sites: dict[str, SiteHandle] = {}
        self._routes: dict[int, PacketSink] = {}
        """Each site's forward chain entry, by the site's address."""
        self.packets_unroutable = 0

    def site(self, name: str) -> SiteHandle:
        """Look up a deployed site by name."""
        try:
            return self.sites[name]
        except KeyError:
            raise TopologyError(f"no site named {name!r} in this testbed") from None

    def address_of(self, name: str) -> int:
        """Return the address of a deployed site."""
        return self.site(name).spec.address

    def addresses(self) -> list[int]:
        """Return the addresses of every deployed site, in insertion order."""
        return [handle.spec.address for handle in self.sites.values()]

    def close(self) -> None:
        """Free the packets the testbed recorded, once its measurements end.

        The probe's capture buffer and each site's two traces keep every
        packet they saw.  The testbed's wiring is a reference cycle (the
        probe transmits through the testbed's routes, whose chains deliver
        back to the probe), so without this call those packets live until
        the cyclic collector next runs; with it, reference counting frees them
        here.  Packets still in flight stay with their pending events.  Only
        the testbed's owner calls it: the traces are the ground truth a
        validation run reads afterwards.
        """
        self.probe.clear_captures()
        for handle in self.sites.values():
            handle.forward_trace.clear()
            handle.reverse_trace.clear()

    def add_site(self, spec: HostSpec) -> SiteHandle:
        """Deploy a site from its spec: build its path, hosts and middleboxes, and wire them.

        The reverse chain is attached first, so its entry is the hosts'
        transmit; the forward chain then runs into the site's entry point (its
        one host or its load balancer).  Attaching draws no randomness, so the
        site's streams are forked in spec order: path elements, duplex
        middleboxes, hosts, then the load balancer's salt.
        """
        if spec.name in self.sites:
            raise TopologyError(f"duplicate site name: {spec.name}")
        if spec.address in self._routes:
            raise TopologyError(f"duplicate site address: {format_address(spec.address)}")
        if self.stable_site_seeds:
            site_rng = self.rng.derive(f"site:{spec.name}")
        else:
            site_rng = self.rng.fork(f"site:{spec.name}")

        forward_specs, reverse_specs = path_element_specs(spec)
        forward = build_elements(forward_specs, site_rng)
        reverse = build_elements(reverse_specs, site_rng)
        # path_element_specs ends the forward path with its arrival trace and
        # starts the reverse path with its egress trace.
        forward_trace, reverse_trace = forward[-1], reverse[0]
        assert isinstance(forward_trace, TraceCapture) and isinstance(reverse_trace, TraceCapture)
        # Duplex middleboxes wrap the path at the probe edge: the forward
        # half becomes the outermost upstream element, the reverse half the
        # final element before delivery back to the probe.  Building them
        # after the unidirectional elements keeps fork order — and therefore
        # every existing stream — identical when the tuple is empty.
        for forward_element, reverse_element in build_duplex_pairs(spec.path.middleboxes, site_rng):
            forward.insert(0, forward_element)
            reverse.append(reverse_element)
        transmit = attach_chain(reverse, self.sim, self.probe.deliver)

        hosts = [
            RemoteHost(
                sim=self.sim,
                address=spec.address,
                profile=spec.profile,
                rng=site_rng.fork(f"backend:{index}"),
                transmit=transmit,
                web_server=None if spec.web_object_size is None else build_server(spec.web_object_size),
                icmp_enabled=spec.icmp_enabled,
            )
            for index in range(max(1, spec.load_balancer_backends))
        ]
        load_balancer: Optional[LoadBalancer] = None
        if spec.load_balancer_backends >= 2:
            load_balancer = LoadBalancer(hosts, hash_salt=site_rng.randint(0, 1 << 30))
            entry_point = load_balancer.deliver
        else:
            entry_point = hosts[0].deliver
        self._routes[spec.address] = attach_chain(forward, self.sim, entry_point)

        handle = SiteHandle(
            spec=spec,
            hosts=hosts,
            load_balancer=load_balancer,
            forward_trace=forward_trace,
            reverse_trace=reverse_trace,
        )
        self.sites[spec.name] = handle
        return handle

    def _send_from_probe(self, packet: Packet) -> None:
        """The probe's transmit: put ``packet`` on its destination's forward chain."""
        forward = self._routes.get(packet.ip.dst)
        if forward is None:
            self.packets_unroutable += 1
            return
        forward(packet)


def _striping_spec(spec: StripingSpec, stream: str) -> StripeSpec:
    return StripeSpec(
        num_links=spec.num_links,
        link_rate_bps=spec.link_rate_bps,
        queue_imbalance_scale=spec.queue_imbalance_scale,
        switch_probability=spec.switch_probability,
        imbalance_probability=spec.imbalance_probability,
        stream=stream,
    )


def path_element_specs(
    spec: HostSpec,
) -> tuple[tuple[ElementSpec, ...], tuple[ElementSpec, ...]]:
    """Compile a site's :class:`PathSpec` into declarative element specs.

    Returns ``(forward, reverse)`` ordered spec tuples.  The forward path
    runs access link → loss → jitter → striping → swap → scenario conditions
    → arrival trace; the reverse path mirrors it (egress trace first,
    access link last).  Stream labels match the historical per-site fork
    labels, and absent stages emit no spec at all, so paths described by the
    scalar ``PathSpec`` fields reproduce pre-declarative builds bit for bit.
    """
    path = spec.path
    forward: list[ElementSpec] = [
        LinkSpec(bandwidth_bps=path.access_bandwidth_bps, propagation_delay=path.propagation_delay)
    ]
    if path.forward_loss > 0.0:
        forward.append(LossSpec(path.forward_loss, stream="fwd-loss"))
    if path.forward_jitter_mean > 0.0:
        forward.append(JitterSpec(path.forward_jitter_mean, stream="fwd-jitter"))
    if path.forward_striping is not None:
        forward.append(_striping_spec(path.forward_striping, stream="fwd-stripe"))
    if path.forward_swap_probability > 0.0:
        forward.append(SwapSpec(path.forward_swap_probability, stream="fwd-swap"))
    forward.extend(path.forward_conditions)
    forward.append(TraceSpec(point=f"{spec.name}:forward-arrival"))

    reverse: list[ElementSpec] = [TraceSpec(point=f"{spec.name}:reverse-egress")]
    if path.reverse_swap_probability > 0.0:
        reverse.append(SwapSpec(path.reverse_swap_probability, stream="rev-swap"))
    if path.reverse_striping is not None:
        reverse.append(_striping_spec(path.reverse_striping, stream="rev-stripe"))
    if path.reverse_jitter_mean > 0.0:
        reverse.append(JitterSpec(path.reverse_jitter_mean, stream="rev-jitter"))
    if path.reverse_loss > 0.0:
        reverse.append(LossSpec(path.reverse_loss, stream="rev-loss"))
    reverse.extend(path.reverse_conditions)
    reverse.append(
        LinkSpec(bandwidth_bps=path.access_bandwidth_bps, propagation_delay=path.propagation_delay)
    )
    return tuple(forward), tuple(reverse)


def build_testbed(
    specs: list[HostSpec], seed: int = 1, stable_site_seeds: bool = False
) -> Testbed:
    """Build a testbed containing every site in ``specs``.

    With ``stable_site_seeds=True`` the per-site random streams depend only on
    ``seed`` and each site's name, so building a testbed from any subset of
    ``specs`` reproduces the same sites the full build would contain — the
    property a sharded :class:`repro.core.runner.CampaignPlan` needs.
    """
    testbed = Testbed(seed=seed, stable_site_seeds=stable_site_seeds)
    for spec in specs:
        testbed.add_site(spec)
    return testbed
